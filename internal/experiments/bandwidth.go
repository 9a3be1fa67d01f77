package experiments

import (
	"fmt"
	"math"
	"sort"

	"memdos/internal/core"
	"memdos/internal/mem"
	"memdos/internal/par"
)

// The DRAM bandwidth study: the memory-DoS variant the paper's LLC-centric
// detectors were never aimed at. A sequential streaming hog (attack.
// MemBandwidth) saturates the victim's memory channels while keeping its
// own — and, through the issue-rate floor, the victim's — LLC access
// counters comparatively healthy, the evasion observed by Bechtel & Yun
// ("Memory-Aware Denial-of-Service Attacks on Shared Cache in Multicore
// Real-Time Systems", arXiv:2005.10864). BandwidthStudy scores the
// standard detector set against this hog on 1- and 2-socket topologies
// (local and remote attacker placements) and then closes the loop with
// the respond engine's MemGuard-style membw-limit rung enabled.

// BandwidthSpec configures the study.
type BandwidthSpec struct {
	// App is the victim workload abbreviation.
	App string
	// Seeds are the per-cell simulation seeds.
	Seeds []uint64
	// Sockets lists the topologies to run (e.g. {1, 2}).
	Sockets []int
	// Duration of each detection run (0 = Scenario1Duration).
	Duration float64
	// WithDNN adds the DNN detector (trains the shared cascade on first
	// use).
	WithDNN bool
	// Budget is the closed loop's membw-limit rung budget in bytes/s
	// (0 = MemBWBudget).
	Budget float64
}

// DefaultBandwidthSpec returns the standard study of the given app.
func DefaultBandwidthSpec(app string) BandwidthSpec {
	return BandwidthSpec{
		App:     app,
		Seeds:   []uint64{1},
		Sockets: []int{1, 2},
	}
}

// BandwidthCell is one (topology, placement, detector) detection score,
// aggregated over the seeds.
type BandwidthCell struct {
	Sockets  int
	Remote   bool // attacker homed on the far socket
	Detector string
	// Recall / Specificity / Delay are means over the seeds (NaN seeds
	// dropped; Delay NaN if the detector never fired).
	Recall, Specificity, Delay float64
}

// BandwidthLoop is one topology/placement closed-loop arm, run three
// ways to isolate what the membw-limit rung buys.
type BandwidthLoop struct {
	Sockets int
	Remote  bool
	// Full is the default ladder: throttles → membw-limit → migrate.
	Full *ClosedLoopResult
	// Contained disables migration (a single-host deployment that must
	// contain the hog in place) but keeps the membw-limit rung.
	Contained *ClosedLoopResult
	// ThrottleOnly disables migration and the membw-limit rung — the
	// pre-MemGuard ladder. The gap to Contained is the rung's value.
	ThrottleOnly *ClosedLoopResult
}

// BandwidthResult is the full study output.
type BandwidthResult struct {
	App   string
	Cells []BandwidthCell
	Loops []BandwidthLoop
}

// placements expands the socket list into (sockets, remote) arms: a
// 1-socket topology only has a local attacker; multi-socket topologies
// get a local and a remote arm.
func placements(sockets []int) [][2]int {
	var out [][2]int
	for _, s := range sockets {
		out = append(out, [2]int{s, 0})
		if s > 1 {
			out = append(out, [2]int{s, 1})
		}
	}
	return out
}

// BandwidthStudy runs the detection matrix and the closed-loop arms.
// With a fixed spec the result is bit-reproducible at any worker count:
// the matrix cells are independent deterministic runs merged in index
// order, and the closed-loop arms run serially after the fan-out
// (ClosedLoop fans its own arms on the shared pool).
func BandwidthStudy(spec BandwidthSpec) (*BandwidthResult, error) {
	if spec.App == "" || len(spec.Seeds) == 0 || len(spec.Sockets) == 0 {
		return nil, fmt.Errorf("experiments: bandwidth study needs an app, seeds and sockets")
	}
	for _, s := range spec.Sockets {
		if s < 1 {
			return nil, fmt.Errorf("experiments: invalid socket count %d", s)
		}
	}
	dur := spec.Duration
	if dur <= 0 {
		dur = Scenario1Duration
	}
	budget := spec.Budget
	if budget <= 0 {
		budget = MemBWBudget
	}
	params := core.DefaultParams()
	factories := StandardFactories(spec.WithDNN)
	if _, isDNN := factories["DNN"]; isDNN {
		// Resolve the shared cascade up front: its training fans out on
		// the same pool the matrix cells run on.
		if _, err := SharedCascade(); err != nil {
			return nil, err
		}
	}
	// The victim's profile is memoized behind a sync.Once; resolve it
	// before the fan-out for the same reason.
	if _, err := profileFor(spec.App, params); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(factories))
	for name := range factories { //memdos:ignore maporder keys are sorted on the next line before any use
		names = append(names, name)
	}
	sort.Strings(names)

	arms := placements(spec.Sockets)
	type job struct {
		sockets, atkSocket int
		name               string
		seed               uint64
	}
	var jobs []job
	for _, arm := range arms {
		for _, name := range names {
			for _, seed := range spec.Seeds {
				jobs = append(jobs, job{sockets: arm[0], atkSocket: arm[1], name: name, seed: seed})
			}
		}
	}
	accs, err := par.MapCells(par.DefaultRunner(), len(jobs), func(i int) (Accuracy, error) {
		j := jobs[i]
		rs := DefaultRunSpec(spec.App, MemBW, j.seed)
		rs.Duration = dur
		rs.AttackStart = dur / 2
		mc := mem.DefaultNUMAConfig(j.sockets)
		rs.Mem = &mc
		rs.AttackerSocket = j.atkSocket
		res, err := Run(rs, params, factories[j.name])
		if err != nil {
			return Accuracy{}, err
		}
		return Score(res, EvalGrace), nil
	})
	if err != nil {
		return nil, err
	}

	out := &BandwidthResult{App: spec.App}
	for ai, arm := range arms {
		for ni, name := range names {
			first := (ai*len(names) + ni) * len(spec.Seeds)
			rec, spc, dly := finite(accs[first : first+len(spec.Seeds)])
			out.Cells = append(out.Cells, BandwidthCell{
				Sockets: arm[0], Remote: arm[1] != 0, Detector: name,
				Recall: meanOrNaN(rec), Specificity: meanOrNaN(spc), Delay: meanOrNaN(dly),
			})
		}
	}

	// Closed-loop arms, serial: each ClosedLoop fans its three arms out
	// on the shared pool itself.
	for _, arm := range arms {
		base := DefaultClosedLoopSpec(spec.App, MemBW, spec.Seeds[0])
		base.Respond.BandwidthBudget = budget
		mc := mem.DefaultNUMAConfig(arm[0])
		base.Mem = &mc
		base.AttackerSocket = arm[1]
		loop := BandwidthLoop{Sockets: arm[0], Remote: arm[1] != 0}
		variants := []struct {
			dst                **ClosedLoopResult
			migration, membwOn bool
		}{
			{&loop.Full, true, true},
			{&loop.Contained, false, true},
			{&loop.ThrottleOnly, false, false},
		}
		for _, v := range variants {
			ls := base
			ls.Respond.EnableMigration = v.migration
			ls.Respond.EnableBandwidth = v.membwOn
			res, err := ClosedLoop(ls)
			if err != nil {
				return nil, err
			}
			*v.dst = res
		}
		out.Loops = append(out.Loops, loop)
	}
	return out, nil
}

// meanOrNaN averages vs, NaN when empty.
func meanOrNaN(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
