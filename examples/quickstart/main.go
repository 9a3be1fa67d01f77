// Quickstart: build the simulated testbed, profile an application, launch
// a bus locking attack, and detect it with SDS.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"memdos"
)

func main() {
	params := memdos.DefaultParams()

	// 1. Profile k-means while it is known to be safe (right after VM
	// start, before an adversary can co-locate).
	profile, err := memdos.ProfileApplication("KM", memdos.ProfileDuration, params)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := profile.AccessBounds(params.K)
	fmt.Printf("profiled k-means: AccessNum EWMA normal range [%.0f, %.0f]\n", lo, hi)

	// 2. Build the testbed: victim + attacker + benign neighbours on one
	// simulated server.
	cfg := memdos.DefaultServerConfig()
	cfg.Seed = 42
	srv, err := memdos.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	appSpec, err := memdos.WorkloadByAbbrev("KM")
	if err != nil {
		log.Fatal(err)
	}
	victim, err := srv.AddApp("victim", appSpec.Service())
	if err != nil {
		log.Fatal(err)
	}
	atk, err := memdos.NewBusLockAttack(memdos.AttackWindow{Start: 120, End: 300}, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := srv.AddAttacker("attacker", atk); err != nil {
		log.Fatal(err)
	}

	// 3. Attach the SDS detector and stream the victim's PCM samples
	// through it while the simulation runs.
	detector, err := memdos.NewSDS(profile, params)
	if err != nil {
		log.Fatal(err)
	}
	var firstAlarm float64 = -1
	srv.RunUntil(300, func(step memdos.ServerStep) {
		for _, d := range detector.Push(step.Samples[victim.ID()]) {
			if d.Alarm && firstAlarm < 0 {
				firstAlarm = d.Time
			}
		}
	})

	if firstAlarm < 0 {
		fmt.Println("attack was NOT detected")
		return
	}
	fmt.Printf("bus locking attack started at t=120s\n")
	fmt.Printf("SDS raised the alarm at t=%.1fs (detection delay %.1fs)\n",
		firstAlarm, firstAlarm-120)
}
