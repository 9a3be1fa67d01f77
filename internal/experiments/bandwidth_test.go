package experiments

import (
	"math"
	"reflect"
	"testing"

	"memdos/internal/core"
	"memdos/internal/mem"
	"memdos/internal/par"
)

func TestBandwidthSpecValidation(t *testing.T) {
	if _, err := BandwidthStudy(BandwidthSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := BandwidthStudy(BandwidthSpec{App: "KM", Seeds: []uint64{1}, Sockets: []int{0}}); err == nil {
		t.Error("zero-socket topology accepted")
	}
	// The MemBW attack cannot run without the memory-controller model.
	if _, err := Run(DefaultRunSpec("KM", MemBW, 1), core.DefaultParams(), nil); err == nil {
		t.Error("MemBW run without RunSpec.Mem accepted")
	}
	if _, err := ClosedLoop(DefaultClosedLoopSpec("KM", MemBW, 1)); err == nil {
		t.Error("MemBW closed loop without Mem accepted")
	}
}

// A zero duration or budget is refused, not replaced by a default: the
// defaults live in DefaultBandwidthSpec.
func TestBandwidthSpecTakesValuesAsGiven(t *testing.T) {
	def := DefaultBandwidthSpec("KM")
	if def.Duration != Scenario1Duration || def.Budget != MemBWBudget {
		t.Errorf("default spec = %+v, want duration %v and budget %v", def, Scenario1Duration, MemBWBudget)
	}
	for _, bad := range []func(*BandwidthSpec){
		func(s *BandwidthSpec) { s.Duration = 0 },
		func(s *BandwidthSpec) { s.Duration = -1 },
		func(s *BandwidthSpec) { s.Duration = math.NaN() },
		func(s *BandwidthSpec) { s.Budget = 0 },
		func(s *BandwidthSpec) { s.Budget = -1 },
		func(s *BandwidthSpec) { s.Budget = math.NaN() },
	} {
		spec := DefaultBandwidthSpec("KM")
		spec.Sockets = []int{1}
		bad(&spec)
		if _, err := BandwidthStudy(spec); err == nil {
			t.Errorf("duration %v, budget %v accepted", spec.Duration, spec.Budget)
		}
	}
}

// shortBandwidthSpec keeps the study small enough for CI: one app, one
// seed, quarter-length runs.
func shortBandwidthSpec() BandwidthSpec {
	spec := DefaultBandwidthSpec("KM")
	spec.Duration = 120
	return spec
}

// TestBandwidthStudySmoke runs the full study at reduced duration: the
// detection matrix covers both topologies and placements, and every
// closed-loop arm shows the hog slowing the victim with the mitigated
// arm recovering part of it.
func TestBandwidthStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth study is seconds-long")
	}
	res, err := BandwidthStudy(shortBandwidthSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Arms: (1,local), (2,local), (2,remote); detectors: SDS, KStest.
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d, want 6: %+v", len(res.Cells), res.Cells)
	}
	if len(res.Loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(res.Loops))
	}
	for _, c := range res.Cells {
		if !math.IsNaN(c.Specificity) && c.Specificity < 0.5 {
			t.Errorf("cell %+v: implausible specificity", c)
		}
	}
	for _, l := range res.Loops {
		for _, lp := range []*ClosedLoopResult{l.Full, l.Contained, l.ThrottleOnly} {
			if lp.AttackedNormalized <= 1.02 {
				t.Errorf("loop %d-socket remote=%v: hog did not slow the victim (%v)",
					l.Sockets, l.Remote, lp.AttackedNormalized)
			}
			if lp.MitigatedNormalized > lp.AttackedNormalized {
				t.Errorf("loop %d-socket remote=%v: mitigation made it worse (%v vs %v)",
					l.Sockets, l.Remote, lp.MitigatedNormalized, lp.AttackedNormalized)
			}
		}
		// The rung's raison d'être: contained recovery with the budget
		// beats throttle-only containment.
		if l.Contained.MitigatedNormalized > l.ThrottleOnly.MitigatedNormalized {
			t.Errorf("loop %d-socket remote=%v: membw rung did not beat throttle-only (%v vs %v)",
				l.Sockets, l.Remote, l.Contained.MitigatedNormalized, l.ThrottleOnly.MitigatedNormalized)
		}
		if l.Contained.Stats.BandwidthLimits == 0 {
			t.Errorf("loop %d-socket remote=%v: membw rung never actuated", l.Sockets, l.Remote)
		}
	}
}

// TestBandwidthStudyWorkerDeterminism pins the study's output at any
// worker count — the memdos-vet determinism contract for internal/mem
// composed all the way up through experiments.
func TestBandwidthStudyWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth study is seconds-long")
	}
	spec := shortBandwidthSpec()
	spec.Sockets = []int{2}
	prev := par.SetParallelism(1)
	defer par.SetParallelism(prev)
	a, err := BandwidthStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	par.SetParallelism(8)
	b, err := BandwidthStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("study diverged across worker counts:\n%+v\n%+v", a, b)
	}
}

// TestMemBWRunEvadesLLCCounters pins the study's headline at the Run
// level: under the DRAM hog the victim's AccessNum mean dips far less
// than its progress, so an LLC-centric detector has little to see.
func TestMemBWRunEvadesLLCCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long simulation")
	}
	mc := mem.DefaultNUMAConfig(1)
	spec := DefaultRunSpec("KM", MemBW, 3)
	spec.Duration = 120
	spec.AttackStart = 60
	spec.Mem = &mc
	res, err := Run(spec, core.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before, during := meanSplit(res.Access.Values, res.Access.Len()/2)
	if during <= 0 || before <= 0 {
		t.Fatalf("degenerate access means %v / %v", before, during)
	}
	if dip := 1 - during/before; dip > 0.5 {
		t.Errorf("AccessNum dipped %.0f%% under the hog — not an LLC-evading attack", 100*dip)
	}
}

// meanSplit averages vs[:k] and vs[k:].
func meanSplit(vs []float64, k int) (a, b float64) {
	for i, v := range vs {
		if i < k {
			a += v
		} else {
			b += v
		}
	}
	return a / float64(k), b / float64(len(vs)-k)
}
