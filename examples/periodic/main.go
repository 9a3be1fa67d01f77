// Periodic-application detection: FaceNet repeats identical per-batch
// computations, so its LLC access pattern is periodic. Memory DoS attacks
// slow the victim down and stretch that period (the paper's Observation 2)
// — SDS/P detects exactly this, independently of SDS/B's level bounds.
//
//	go run ./examples/periodic
package main

import (
	"fmt"
	"log"

	"memdos"
)

func main() {
	params := memdos.DefaultParams()

	profile, err := memdos.ProfileApplication("FN", memdos.ProfileDuration, params)
	if err != nil {
		log.Fatal(err)
	}
	if !profile.Periodic {
		log.Fatalf("FaceNet not profiled as periodic: %+v", profile)
	}
	maSeconds := float64(params.DW) * params.TPCM
	fmt.Printf("FaceNet profiled period: %.1f MA windows (%.1f s per batch)\n",
		profile.Period, profile.Period*maSeconds)

	cfg := memdos.DefaultServerConfig()
	cfg.Seed = 7
	srv, err := memdos.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	appSpec, err := memdos.WorkloadByAbbrev("FN")
	if err != nil {
		log.Fatal(err)
	}
	victim, err := srv.AddApp("victim", appSpec.Service())
	if err != nil {
		log.Fatal(err)
	}
	// This time the attacker cleanses the LLC rather than locking the bus.
	atk, err := memdos.NewLLCCleansingAttack(memdos.AttackWindow{Start: 150, End: 360}, 0.6, 2e6)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := srv.AddAttacker("attacker", atk); err != nil {
		log.Fatal(err)
	}

	detector, err := memdos.NewSDSP(profile, params)
	if err != nil {
		log.Fatal(err)
	}
	var firstAlarm float64 = -1
	lastReport := 0.0
	srv.RunUntil(360, func(step memdos.ServerStep) {
		for _, d := range detector.Push(step.Samples[victim.ID()]) {
			if d.Time-lastReport >= 30 {
				lastReport = d.Time
				fmt.Printf("t=%5.1fs  measured period: %5.1f MA windows (normal %.1f)\n",
					d.Time, detector.LastPeriod(), profile.Period)
			}
			if d.Alarm && firstAlarm < 0 {
				firstAlarm = d.Time
			}
		}
	})

	if firstAlarm < 0 {
		fmt.Println("attack was NOT detected")
		return
	}
	fmt.Printf("LLC cleansing started at t=150s; SDS/P alarm at t=%.1fs (delay %.1fs)\n",
		firstAlarm, firstAlarm-150)
}
