package workload

import (
	"math"
	"testing"

	"memdos/internal/period"
	"memdos/internal/sim"
	"memdos/internal/stats"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"BA", "SVM", "KM", "PCA", "TS", "Aggre", "Join", "Scan", "PR", "FN"}
	got := Abbrevs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d apps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("app %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestAllSpecsValid(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.Abbrev, err)
		}
	}
}

func TestByAbbrev(t *testing.T) {
	s, err := ByAbbrev("TS")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "TeraSort" {
		t.Errorf("TS resolves to %q", s.Name)
	}
	if _, err := ByAbbrev("NOPE"); err == nil {
		t.Error("unknown abbrev should error")
	}
}

func TestMustByAbbrevPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByAbbrev did not panic")
		}
	}()
	MustByAbbrev("NOPE")
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "x", Abbrev: "x"}, // no rate
		{Name: "x", Abbrev: "x", BaseAccessRate: 1, BaseMissRatio: 2},    // bad ratio
		{Name: "x", Abbrev: "x", BaseAccessRate: 1, Periodic: true},      // no period
		{Name: "x", Abbrev: "x", BaseAccessRate: 1, Phases: []Phase{{}}}, // bad phase
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
		if _, err := s.New(sim.NewRNG(1)); err == nil {
			t.Errorf("bad spec %d instantiated", i)
		}
	}
}

// collect runs an instance at the given speed and returns per-10ms
// delivered access samples (demand * speed, mirroring the VM layer).
func collect(in *Instance, seconds, speed float64) []float64 {
	const dt = 0.01
	n := int(seconds / dt)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		d, _ := in.Demand(dt)
		out[i] = d * speed
		in.Advance(dt, speed)
	}
	return out
}

func TestDemandPositive(t *testing.T) {
	for _, s := range All() {
		in := s.MustNew(sim.NewRNG(7))
		for i := 0; i < 1000; i++ {
			a, m := in.Demand(0.01)
			if a <= 0 {
				t.Fatalf("%s: non-positive demand %v", s.Abbrev, a)
			}
			if m < 0 || m > 1 {
				t.Fatalf("%s: miss ratio %v outside [0,1]", s.Abbrev, m)
			}
			in.Advance(0.01, 1)
		}
	}
}

func TestDemandMeanNearBase(t *testing.T) {
	for _, s := range All() {
		in := s.MustNew(sim.NewRNG(8))
		samples := collect(in, 120, 1)
		mean := stats.Mean(samples)
		// Expected per-sample demand is roughly BaseAccessRate*0.01
		// (phase factors average near 1 by construction).
		want := s.BaseAccessRate * 0.01
		if mean < 0.5*want || mean > 1.6*want {
			t.Errorf("%s: mean sample %v far from base %v", s.Abbrev, mean, want)
		}
	}
}

func TestPeriodicAppsShowPeriod(t *testing.T) {
	for _, abbrev := range []string{"PCA", "FN"} {
		s := MustByAbbrev(abbrev)
		in := s.MustNew(sim.NewRNG(9))
		raw := collect(in, 120, 1)
		ma := stats.MA(raw, 200, 50) // one MA value per 0.5 s
		est := period.NewEstimator(period.DefaultEstimatorConfig()).Estimate(ma)
		if !est.Periodic {
			t.Fatalf("%s: no period detected", abbrev)
		}
		wantMA := s.PeriodSec / 0.5 // period in MA samples
		if math.Abs(est.Period-wantMA) > wantMA*0.2 {
			t.Errorf("%s: period = %v MA samples, want ~%v", abbrev, est.Period, wantMA)
		}
	}
}

func TestFaceNetPaperPeriod(t *testing.T) {
	// Fig. 8: FaceNet's period is ~17 MA windows (W=200, dW=50, 10ms).
	s := MustByAbbrev("FN")
	in := s.MustNew(sim.NewRNG(10))
	raw := collect(in, 120, 1)
	ma := stats.MA(raw, 200, 50)
	est := period.NewEstimator(period.DefaultEstimatorConfig()).Estimate(ma)
	if !est.Periodic || math.Abs(est.Period-17) > 3 {
		t.Errorf("FN period = %+v, want ~17 MA windows", est)
	}
}

func TestSlowdownStretchesPeriod(t *testing.T) {
	// Observation (2): a slowed periodic app shows an elongated period.
	s := MustByAbbrev("FN")
	fast := s.MustNew(sim.NewRNG(11))
	slow := s.MustNew(sim.NewRNG(11))
	estimator := period.NewEstimator(period.DefaultEstimatorConfig())
	pFast := estimator.Estimate(stats.MA(collect(fast, 120, 1), 200, 50))
	pSlow := estimator.Estimate(stats.MA(collect(slow, 200, 0.5), 200, 50))
	if !pFast.Periodic || !pSlow.Periodic {
		t.Fatalf("periodicity lost: %+v %+v", pFast, pSlow)
	}
	ratio := pSlow.Period / pFast.Period
	if ratio < 1.5 || ratio > 2.8 {
		t.Errorf("half-speed period ratio = %v, want ~2", ratio)
	}
}

func TestNonPeriodicAppsNoStablePeriod(t *testing.T) {
	// KM is the steadiest non-periodic app; the estimator should not find
	// a *consistent* strong period across independent runs.
	s := MustByAbbrev("KM")
	estimator := period.NewEstimator(period.DefaultEstimatorConfig())
	found := 0
	for seed := uint64(0); seed < 5; seed++ {
		in := s.MustNew(sim.NewRNG(100 + seed))
		ma := stats.MA(collect(in, 120, 1), 200, 50)
		if est := estimator.Estimate(ma); est.Periodic && est.Correlation > 0.5 {
			found++
		}
	}
	if found > 2 {
		t.Errorf("KM shows a strong period in %d/5 runs", found)
	}
}

func TestAdvanceProgressesWork(t *testing.T) {
	s := MustByAbbrev("BA")
	in := s.MustNew(sim.NewRNG(12))
	in.Advance(10, 1)
	if in.Work() != 10 {
		t.Errorf("work = %v, want 10", in.Work())
	}
	in.Advance(10, 0.5)
	if in.Work() != 15 {
		t.Errorf("work = %v, want 15", in.Work())
	}
	// Speed clamps.
	in.Advance(1, 2)
	if in.Work() != 16 {
		t.Errorf("work = %v, want 16 (speed clamped to 1)", in.Work())
	}
	in.Advance(1, -3)
	if in.Work() != 16 {
		t.Errorf("work = %v, want 16 (speed clamped to 0)", in.Work())
	}
}

func TestDone(t *testing.T) {
	s := Spec{Name: "t", Abbrev: "t", BaseAccessRate: 1, WorkSeconds: 5}
	in := s.MustNew(sim.NewRNG(13))
	if in.Done() {
		t.Error("fresh instance done")
	}
	in.Advance(5, 1)
	if !in.Done() {
		t.Error("instance not done after its work")
	}
	// Indefinite app never completes.
	svc := Spec{Name: "s", Abbrev: "s", BaseAccessRate: 1}
	si := svc.MustNew(sim.NewRNG(14))
	si.Advance(1e6, 1)
	if si.Done() {
		t.Error("indefinite app reported done")
	}
}

func TestRegimeChainVisitsAllPhases(t *testing.T) {
	s := MustByAbbrev("TS")
	in := s.MustNew(sim.NewRNG(15))
	seen := make(map[int]bool)
	for i := 0; i < 60000; i++ {
		in.Advance(0.01, 1)
		seen[in.phaseIdx] = true
	}
	if len(seen) != len(s.Phases) {
		t.Errorf("visited %d phases of %d", len(seen), len(s.Phases))
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	s := MustByAbbrev("PR")
	a := s.MustNew(sim.NewRNG(42))
	b := s.MustNew(sim.NewRNG(42))
	for i := 0; i < 1000; i++ {
		da, _ := a.Demand(0.01)
		db, _ := b.Demand(0.01)
		if da != db {
			t.Fatalf("same-seed instances diverged at step %d", i)
		}
		a.Advance(0.01, 1)
		b.Advance(0.01, 1)
	}
}

func TestDemandPanicsOnBadDt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Demand(0) did not panic")
		}
	}()
	MustByAbbrev("BA").MustNew(sim.NewRNG(1)).Demand(0)
}

func TestDynamicSpec(t *testing.T) {
	spec := Dynamic()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(spec.Phases) != 3 || spec.WorkSeconds != 0 {
		t.Errorf("dynamic spec = %+v", spec)
	}
}

func TestUtilitySpec(t *testing.T) {
	if err := Utility().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceClearsWork(t *testing.T) {
	s := MustByAbbrev("KM")
	if s.Service().WorkSeconds != 0 {
		t.Error("Service() did not clear WorkSeconds")
	}
	if s.WorkSeconds == 0 {
		t.Error("Service() mutated the original")
	}
}
