// Dynamic applications (the paper's future work, Section VIII): when a
// workload's demand level shifts drastically between phases, SDS/B's
// single profiled range cannot cover it — the paper proposes correlating
// resource utilization with the cache statistics instead. This example
// runs that extension (SDS/U): profile-free, self-calibrating, and driven
// by the two self-normalizing channels (CPU efficiency and LLC miss
// ratio).
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"

	"memdos"
	"memdos/internal/workload"
)

func main() {
	params := memdos.DefaultParams()

	cfg := memdos.DefaultServerConfig()
	cfg.Seed = 9
	srv, err := memdos.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The dynamic service jumps between demand levels 0.5x, 1.0x and
	// 1.7x for tens of seconds at a time — hopeless for a single
	// profiled normal range.
	victim, err := srv.AddApp("victim", workload.Dynamic())
	if err != nil {
		log.Fatal(err)
	}
	atk, err := memdos.NewLLCCleansingAttack(memdos.AttackWindow{Start: 300, End: 600}, 0.6, 2e6)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := srv.AddAttacker("attacker", atk); err != nil {
		log.Fatal(err)
	}

	// SDS/U needs no profile: it reads the victim's CPU efficiency from
	// the hypervisor and self-calibrates during the first ~30 seconds.
	detector, err := memdos.NewSDSU(victim.LastSpeed, params)
	if err != nil {
		log.Fatal(err)
	}

	var firstAlarm, falseAlarms float64 = -1, 0
	decisions := 0
	srv.RunUntil(600, func(step memdos.ServerStep) {
		for _, d := range detector.Push(step.Samples[victim.ID()]) {
			decisions++
			if d.Alarm && d.Time < 300 {
				falseAlarms++
			}
			if d.Alarm && d.Time >= 300 && firstAlarm < 0 {
				firstAlarm = d.Time
			}
		}
	})

	floor, ceil := detector.Thresholds()
	fmt.Printf("self-calibrated thresholds: CPU efficiency floor %.2f, miss-ratio ceiling %.3f\n", floor, ceil)
	fmt.Printf("pre-attack false alarms: %.0f of %d decisions\n", falseAlarms, decisions)
	if firstAlarm < 0 {
		fmt.Println("attack was NOT detected")
		return
	}
	fmt.Printf("LLC cleansing started at t=300s; SDS/U alarm at t=%.1fs (delay %.1fs)\n",
		firstAlarm, firstAlarm-300)
}
