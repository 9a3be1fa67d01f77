package experiments

import (
	"fmt"
	"math"

	"memdos/internal/attack"
	"memdos/internal/cluster"
	"memdos/internal/core"
	"memdos/internal/par"
)

// ClusterStudySpec sizes the datacenter placement study.
type ClusterStudySpec struct {
	// Hosts is the number of simulated physical machines.
	Hosts int
	// Victims / Attackers / Utilities are the VM population by role.
	// Each attacker targets victim i mod Victims.
	Victims, Attackers, Utilities int
	// App is the victims' workload (Table II abbreviation).
	App string
	// Duration is the simulated run length in seconds.
	Duration float64
	// RelocationDelay is the targeted attacker's re-co-location cost.
	RelocationDelay float64
	// ChurnInterval is the churn attacker's relocation period.
	ChurnInterval float64
	// Seed seeds every arm.
	Seed uint64
}

// DefaultClusterStudySpec returns a small-but-meaningful study; the
// memdos cluster subcommand scales it to datacenter size.
func DefaultClusterStudySpec() ClusterStudySpec {
	return ClusterStudySpec{
		Hosts:           16,
		Victims:         8,
		Attackers:       4,
		Utilities:       52,
		App:             "KM",
		Duration:        240,
		RelocationDelay: 60,
		ChurnInterval:   30,
		Seed:            7,
	}
}

// Validate checks the spec.
func (s ClusterStudySpec) Validate() error {
	if s.Hosts < 2 || s.Victims < 1 || s.Attackers < 1 || s.Utilities < 0 {
		return fmt.Errorf("experiments: invalid cluster population (%d hosts, %d victims, %d attackers, %d utilities)",
			s.Hosts, s.Victims, s.Attackers, s.Utilities)
	}
	if s.Duration <= 0 || s.RelocationDelay <= 0 || s.RelocationDelay >= s.Duration {
		return fmt.Errorf("experiments: invalid cluster study times (dur %v, relocation %v)", s.Duration, s.RelocationDelay)
	}
	return nil
}

// ClusterCell is one attacker-placement-policy x scheduler-policy
// outcome of the study grid.
type ClusterCell struct {
	Scheduler cluster.SchedulerPolicy
	Placement cluster.AttackerPolicy
	// CleanSpeed / AttackedSpeed / MitigatedSpeed are the victims' mean
	// execution speeds in the three arms (clean has no attackers and
	// depends only on the scheduler).
	CleanSpeed, AttackedSpeed, MitigatedSpeed float64
	// Recovered is the fraction of attack-induced slowdown the closed
	// loop gave back: (mitigated - attacked) / (clean - attacked).
	Recovered float64
	// Migrations counts defender migrations, AttackerMoves the attacker
	// self-relocations, both in the mitigated arm.
	Migrations, AttackerMoves int
	// Colocation is the targeted-attacker co-residence fraction in the
	// mitigated arm (0 for non-targeted placements).
	Colocation float64
	// AlarmFraction is the fraction of victim-time under a raised alarm
	// in the mitigated arm.
	AlarmFraction float64
}

// ClusterStudyResult is the full placement x scheduling grid.
type ClusterStudyResult struct {
	Spec ClusterStudySpec
	// Cells holds the 9 policy combinations, scheduler-major in
	// (RoundRobin, BinPack, Spread) x (Random, Targeted, Churn) order.
	Cells []ClusterCell
}

// clusterArm identifies one simulation run of the study grid.
type clusterArm struct {
	sched cluster.SchedulerPolicy
	place cluster.AttackerPolicy
	// kind: 0 clean (no attackers), 1 attacked, 2 mitigated.
	kind int
}

// runStudyArms profiles spec.App and runs each arm's cluster for
// spec.Duration. The arms are independent cells on the shared worker
// pool; each arm's cluster runs single-worker inside its cell, so the
// results are byte-identical at any worker count.
func runStudyArms(spec ClusterStudySpec, arms []clusterArm) ([]*cluster.Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	params := core.DefaultParams()
	prof, err := profileFor(spec.App, params)
	if err != nil {
		return nil, err
	}
	return par.MapCells(par.DefaultRunner(), len(arms), func(i int) (*cluster.Result, error) {
		c, err := buildStudyCluster(spec, arms[i], prof, params)
		if err != nil {
			return nil, err
		}
		return c.Run(spec.Duration)
	})
}

// buildStudyCluster constructs and populates one arm's cluster.
func buildStudyCluster(spec ClusterStudySpec, arm clusterArm, prof core.Profile, params core.Params) (*cluster.Cluster, error) {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = spec.Hosts
	cfg.Seed = spec.Seed
	cfg.Scheduler = arm.sched
	cfg.Placement = arm.place
	cfg.RelocationDelay = spec.RelocationDelay
	cfg.ChurnInterval = spec.ChurnInterval
	// Hosts run serially inside an arm; the arms are the parallel cells.
	cfg.Workers = 1
	// Size bin-packing to the population (with ~25% headroom) so the
	// policy consolidates instead of degenerating to host 0.
	total := spec.Victims + spec.Attackers + spec.Utilities
	cfg.HostCapacity = (total + spec.Hosts - 1) / spec.Hosts
	cfg.HostCapacity += (cfg.HostCapacity + 3) / 4
	if arm.kind == 2 {
		cfg.Detector = func(string) (core.Detector, error) { return core.NewSDS(prof, params) }
		cfg.Respond = migrationLadder()
		cfg.HypervisorLoad = sdsCharge(prof.Periodic)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.Victims; i++ {
		if err := c.AddVictim(fmt.Sprintf("victim%03d", i), spec.App); err != nil {
			return nil, err
		}
	}
	if arm.kind > 0 {
		for i := 0; i < spec.Attackers; i++ {
			atk, err := attack.NewBusLock(attack.Window{Start: 0, End: math.Inf(1)}, BusLockDuty)
			if err != nil {
				return nil, err
			}
			target := fmt.Sprintf("victim%03d", i%spec.Victims)
			if err := c.AddAttacker(fmt.Sprintf("attacker%03d", i), atk, target); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < spec.Utilities; i++ {
		if err := c.AddUtility(fmt.Sprintf("util%03d", i)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// ClusterStudy runs the attacker-placement-policy x scheduler-policy
// grid: for every combination it measures the victims' mean speed clean,
// under attack, and under the full closed loop (SDS detection -> respond
// ladder -> real VM migration to a clean host), and reports how much of
// the induced slowdown the loop recovered.
func ClusterStudy(spec ClusterStudySpec) (*ClusterStudyResult, error) {
	scheds := []cluster.SchedulerPolicy{cluster.RoundRobin, cluster.BinPack, cluster.Spread}
	places := []cluster.AttackerPolicy{cluster.AttackRandom, cluster.AttackTargeted, cluster.AttackChurn}

	// Enumerate the arms: one clean run per scheduler (attacker policy
	// is irrelevant without attackers), then attacked and mitigated runs
	// per (scheduler, placement) combination.
	var arms []clusterArm
	for _, s := range scheds {
		arms = append(arms, clusterArm{sched: s, place: cluster.AttackRandom, kind: 0})
		for _, p := range places {
			arms = append(arms, clusterArm{sched: s, place: p, kind: 1}, clusterArm{sched: s, place: p, kind: 2})
		}
	}
	results, err := runStudyArms(spec, arms)
	if err != nil {
		return nil, err
	}
	byArm := make(map[clusterArm]*cluster.Result, len(arms))
	for i, a := range arms {
		byArm[a] = results[i]
	}

	out := &ClusterStudyResult{Spec: spec}
	for _, s := range scheds {
		clean := byArm[clusterArm{sched: s, place: cluster.AttackRandom, kind: 0}]
		for _, p := range places {
			atk := byArm[clusterArm{sched: s, place: p, kind: 1}]
			mit := byArm[clusterArm{sched: s, place: p, kind: 2}]
			cell := ClusterCell{
				Scheduler:      s,
				Placement:      p,
				CleanSpeed:     clean.MeanVictimSpeed,
				AttackedSpeed:  atk.MeanVictimSpeed,
				MitigatedSpeed: mit.MeanVictimSpeed,
				Migrations:     mit.Migrations,
				AttackerMoves:  mit.AttackerMoves,
				Colocation:     mit.ColocationFraction,
				AlarmFraction:  mit.AlarmFraction,
			}
			if gap := cell.CleanSpeed - cell.AttackedSpeed; gap > 1e-9 {
				cell.Recovered = (cell.MitigatedSpeed - cell.AttackedSpeed) / gap
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}
