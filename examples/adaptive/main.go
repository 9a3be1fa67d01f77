// Adaptive attacks (the paper's Scenario 2): the attacker toggles the
// attack on and off for random 10-50 s stretches to evade detection. This
// example compares how SDS and the KStest baseline cope, using the
// experiment harness directly.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"memdos"
)

func main() {
	params := memdos.DefaultParams()

	spec := memdos.DefaultRunSpec("TS", memdos.BusLock, 11)
	spec.Adaptive = true // Scenario 2 on/off schedule

	// Each scheme gets its own run (as in the paper — they are
	// alternative deployments, and KStest's execution throttling would
	// otherwise perturb SDS's sample stream). The seed fixes the
	// workload and attack schedule, so the runs are comparable.
	schemes := []struct {
		name    string
		factory memdos.DetectorFactory
	}{
		{"SDS", memdos.SDSDetectorFactory},
		{"KStest", memdos.KSDetectorFactory},
	}
	for i, s := range schemes {
		res, err := memdos.RunExperiment(spec, params, s.factory)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("adaptive schedule produced %d attack bursts over %vs:\n", len(res.Truth), spec.Duration)
			for _, iv := range res.Truth {
				fmt.Printf("  attack on  [%6.1f, %6.1f)  (%.0fs)\n", iv.Start, iv.End, iv.End-iv.Start)
			}
		}
		a := memdos.ScoreRun(res, 5)
		fmt.Printf("%-7s recall %.3f  specificity %.3f  mean delay %.1fs\n",
			s.name, a.Recall, a.Specificity, a.MeanDelay)
	}
	fmt.Println("\nshort bursts routinely evade the statistical schemes —")
	fmt.Println("run ./examples/dnntrain to see the DNN detector handle them.")
}
