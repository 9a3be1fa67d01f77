package experiments

import (
	"fmt"
	"math"

	"memdos/internal/attack"
	"memdos/internal/cluster"
	"memdos/internal/core"
	"memdos/internal/par"
	"memdos/internal/respond"
)

// MigrationResult quantifies the paper's Section II argument that VM
// migration alone cannot defeat memory DoS attacks: the malicious tenant
// simply re-co-locates with the migrated victim, so the attack resumes
// after every migration.
type MigrationResult struct {
	// Migrations is how many times the victim was migrated in response
	// to an SDS alarm.
	Migrations int
	// AttackedFraction is the fraction of the run the attacker spent
	// co-resident with the victim *with* the detect-and-migrate
	// response.
	AttackedFraction float64
	// AttackedFractionNoResponse is the same fraction with no response
	// at all (the attacker stays co-resident throughout).
	AttackedFractionNoResponse float64
	// MeanSpeedWithResponse / MeanSpeedNoResponse are the victim's mean
	// execution speeds (1.0 = unimpeded) under each policy.
	MeanSpeedWithResponse, MeanSpeedNoResponse float64
}

// migrationLadder is the detect-and-migrate respond config the migration
// studies share: one weak throttle rung that cannot quiet a bus-locking
// attacker (so the alarm stays raised), then escalate to migration.
func migrationLadder() respond.Config {
	return respond.Config{
		ThrottleDuties:  []float64{0.25},
		EnableMigration: true,
		EscalateAfter:   10,
		ClearAfter:      10,
		Cooldown:        60,
	}
}

// MigrationStudy runs a continuous bus-locking attacker against the app
// for dur seconds under a detect-and-migrate policy on a real multi-host
// cluster (internal/cluster): every sustained SDS alarm live-migrates
// the victim to a contention-aware-chosen clean host, and the targeted
// attacker re-co-locates relocationDelay seconds later (Section III-B's
// probing cost). The single-host Suppressor model this study once used
// is gone — the migration here is the same ExportVM/AdmitVM state
// transfer the respond ladder's migrate rung performs.
func MigrationStudy(app string, relocationDelay, dur float64, seed uint64) (*MigrationResult, error) {
	if relocationDelay <= 0 || dur <= relocationDelay {
		return nil, fmt.Errorf("experiments: invalid migration study times (%v, %v)", relocationDelay, dur)
	}
	params := core.DefaultParams()
	prof, err := profileFor(app, params)
	if err != nil {
		return nil, err
	}

	run := func(withResponse bool) (*cluster.Result, error) {
		cfg := cluster.DefaultConfig()
		cfg.Seed = seed
		cfg.Scheduler = cluster.Spread
		cfg.Placement = cluster.AttackTargeted
		cfg.RelocationDelay = relocationDelay
		// Both arms of one study run serially inside their cell; the two
		// arms themselves are the parallel cells.
		cfg.Workers = 1
		if withResponse {
			cfg.Detector = func(string) (core.Detector, error) { return core.NewSDS(prof, params) }
			cfg.Respond = migrationLadder()
			cfg.HypervisorLoad = sdsCharge(prof.Periodic)
		}
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.AddVictim("victim", app); err != nil {
			return nil, err
		}
		atk, err := attack.NewBusLock(attack.Window{Start: 0, End: math.Inf(1)}, BusLockDuty)
		if err != nil {
			return nil, err
		}
		if err := c.AddAttacker("attacker", atk, "victim"); err != nil {
			return nil, err
		}
		for i := 0; i < 6; i++ {
			if err := c.AddUtility(fmt.Sprintf("util%d", i)); err != nil {
				return nil, err
			}
		}
		return c.Run(dur)
	}

	arms, err := par.MapCells(par.DefaultRunner(), 2, func(i int) (*cluster.Result, error) {
		return run(i == 0)
	})
	if err != nil {
		return nil, err
	}
	with, without := arms[0], arms[1]
	return &MigrationResult{
		Migrations:                 with.Migrations,
		AttackedFraction:           with.ColocationFraction,
		AttackedFractionNoResponse: without.ColocationFraction,
		MeanSpeedWithResponse:      with.MeanVictimSpeed,
		MeanSpeedNoResponse:        without.MeanVictimSpeed,
	}, nil
}
