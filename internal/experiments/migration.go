package experiments

import (
	"memdos/internal/cluster"
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
// transfer the respond ladder's migrate rung performs. The testbed is
// one spread/targeted cell of ClusterStudy's grid, on the default
// cluster's hosts with one victim, one attacker and six utility VMs.
func MigrationStudy(app string, relocationDelay, dur float64, seed uint64) (*MigrationResult, error) {
	spec := DefaultClusterStudySpec()
	spec.Hosts = cluster.DefaultConfig().Hosts
	spec.Victims, spec.Attackers, spec.Utilities = 1, 1, 6
	spec.App, spec.Duration, spec.RelocationDelay, spec.Seed = app, dur, relocationDelay, seed
	// The mitigated arm first, then the attacked one.
	res, err := runStudyArms(spec, []clusterArm{
		{sched: cluster.Spread, place: cluster.AttackTargeted, kind: 2},
		{sched: cluster.Spread, place: cluster.AttackTargeted, kind: 1},
	})
	if err != nil {
		return nil, err
	}
	with, without := res[0], res[1]
	return &MigrationResult{
		Migrations:                 with.Migrations,
		AttackedFraction:           with.ColocationFraction,
		AttackedFractionNoResponse: without.ColocationFraction,
		MeanSpeedWithResponse:      with.MeanVictimSpeed,
		MeanSpeedNoResponse:        without.MeanVictimSpeed,
	}, nil
}
