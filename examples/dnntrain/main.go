// DNN detection end to end: generate a labelled training corpus from the
// simulated testbed, train the cascaded LSTM-FCN classifiers (Section V of
// the paper) with the from-scratch deep-learning stack, then deploy the
// trained cascade as a live detector against an adaptive attacker.
//
// Training is CPU-only and takes a minute or two with the compact
// architecture (see DESIGN.md for the scale substitution).
//
//	go run ./examples/dnntrain
package main

import (
	"fmt"
	"log"

	"memdos"
	"memdos/internal/experiments"
)

func main() {
	// 1. Train a compact cascade on three applications.
	spec := experiments.DefaultTrainingSpec()
	spec.Apps = []string{"KM", "BA", "TS"}
	spec.RunSeconds = 90
	spec.Train.Epochs = 10
	spec.Train.Verbose = func(line string) { fmt.Println("  " + line) }

	samples, err := experiments.GenerateCascadeSamples(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d labelled windows (%d apps x 3 attack states)\n",
		len(samples), len(spec.Apps))
	fmt.Println("training cascade (app classifier, then attack classifier)...")
	cascade, err := experiments.TrainCascade(spec)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Deploy it against an adaptive bus-locking attacker on k-means.
	params := memdos.DefaultParams()
	run := memdos.DefaultRunSpec("KM", memdos.BusLock, 23)
	run.Adaptive = true
	factory := func(env *memdos.ExperimentEnv) (memdos.Detector, error) {
		return memdos.NewDNNDetector(cascade, env.Params)
	}
	res, err := memdos.RunExperiment(run, params, factory)
	if err != nil {
		log.Fatal(err)
	}
	a := memdos.ScoreRun(res, 5)
	fmt.Printf("\nadaptive Scenario 2 on k-means (%d attack bursts):\n", len(res.Truth))
	fmt.Printf("DNN recall %.3f  specificity %.3f  mean delay %.1fs\n",
		a.Recall, a.Specificity, a.MeanDelay)
	fmt.Println("\ncompare with ./examples/adaptive, where SDS and KStest face the same schedule.")
}
