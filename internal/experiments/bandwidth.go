package experiments

import (
	"fmt"

	"memdos/internal/core"
	"memdos/internal/mem"
	"memdos/internal/metrics"
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

// BandwidthSpec configures the study. Every field is taken as given:
// DefaultBandwidthSpec fills in the standard values, and BandwidthStudy
// refuses a non-positive Duration or Budget rather than replacing it.
type BandwidthSpec struct {
	// App is the victim workload abbreviation.
	App string
	// Seeds are the per-cell simulation seeds.
	Seeds []uint64
	// Sockets lists the topologies to run (e.g. {1, 2}).
	Sockets []int
	// Duration of each detection run in seconds; the attack starts at
	// its midpoint.
	Duration float64
	// WithDNN adds the DNN detector (trains the shared cascade on first
	// use).
	WithDNN bool
	// Budget is the closed loop's membw-limit rung budget in bytes/s.
	Budget float64
}

// DefaultBandwidthSpec returns the standard study of the given app.
func DefaultBandwidthSpec(app string) BandwidthSpec {
	return BandwidthSpec{
		App:      app,
		Seeds:    []uint64{1},
		Sockets:  []int{1, 2},
		Duration: Scenario1Duration,
		Budget:   MemBWBudget,
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
// the matrix is one scored grid, and the closed-loop arms run serially
// after it (ClosedLoop fans its own arms on the shared pool).
func BandwidthStudy(spec BandwidthSpec) (*BandwidthResult, error) {
	if spec.App == "" || len(spec.Seeds) == 0 || len(spec.Sockets) == 0 {
		return nil, fmt.Errorf("experiments: bandwidth study needs an app, seeds and sockets")
	}
	for _, s := range spec.Sockets {
		if s < 1 {
			return nil, fmt.Errorf("experiments: invalid socket count %d", s)
		}
	}
	if !(spec.Duration > 0) || !(spec.Budget > 0) {
		return nil, fmt.Errorf("experiments: bandwidth study needs a positive duration and budget (got %v s, %v B/s)", spec.Duration, spec.Budget)
	}
	dets := StandardFactories(spec.WithDNN)
	arms := placements(spec.Sockets)
	var grid []gridCell
	for _, arm := range arms {
		for _, d := range dets {
			rs := DefaultRunSpec(spec.App, MemBW, 0)
			rs.Duration = spec.Duration
			rs.AttackStart = spec.Duration / 2
			mc := mem.DefaultNUMAConfig(arm[0])
			rs.Mem = &mc
			rs.AttackerSocket = arm[1]
			grid = append(grid, gridCell{spec: rs, params: core.DefaultParams(), factory: d.Factory})
		}
	}
	accs, err := scoreGrid(grid, spec.Seeds)
	if err != nil {
		return nil, err
	}

	out := &BandwidthResult{App: spec.App}
	for i, a := range accs {
		arm := arms[i/len(dets)]
		rec, spc, dly := finite(a)
		out.Cells = append(out.Cells, BandwidthCell{
			Sockets: arm[0], Remote: arm[1] != 0, Detector: dets[i%len(dets)].Name,
			Recall: metrics.MeanDelay(rec), Specificity: metrics.MeanDelay(spc), Delay: metrics.MeanDelay(dly),
		})
	}

	// Closed-loop arms, serial: each ClosedLoop fans its three arms out
	// on the shared pool itself.
	for _, arm := range arms {
		base := DefaultClosedLoopSpec(spec.App, MemBW, spec.Seeds[0])
		base.Respond.BandwidthBudget = spec.Budget
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
