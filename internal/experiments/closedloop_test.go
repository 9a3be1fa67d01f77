package experiments

import (
	"reflect"
	"testing"

	"memdos/internal/respond"
)

func TestClosedLoopValidation(t *testing.T) {
	if _, err := ClosedLoop(ClosedLoopSpec{App: "KM", Mode: NoAttack, AttackStart: 1, RelocationDelay: 1}); err == nil {
		t.Error("NoAttack accepted")
	}
	spec := DefaultClosedLoopSpec("KM", BusLock, 1)
	spec.RelocationDelay = 0
	if _, err := ClosedLoop(spec); err == nil {
		t.Error("zero relocation delay accepted")
	}
	if _, err := ClosedLoop(DefaultClosedLoopSpec("nope", BusLock, 1)); err == nil {
		t.Error("unknown app accepted")
	}
}

// TestClosedLoopRecoversPerformance is the acceptance experiment: with
// the respond engine in the loop, the victim's normalized execution time
// under a bus-locking attack improves over the unmitigated run.
func TestClosedLoopRecoversPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop simulation is seconds-long")
	}
	res, err := ClosedLoop(DefaultClosedLoopSpec("KM", BusLock, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackedNormalized <= 1.05 {
		t.Fatalf("attack did not slow the victim: normalized %v", res.AttackedNormalized)
	}
	if res.MitigatedNormalized >= res.AttackedNormalized {
		t.Fatalf("mitigation did not help: attacked %v, mitigated %v",
			res.AttackedNormalized, res.MitigatedNormalized)
	}
	if res.Recovered <= 0.2 {
		t.Errorf("recovered only %.0f%% of the slowdown", 100*res.Recovered)
	}
	if res.Alarms == 0 || res.PeakLevel == 0 {
		t.Errorf("loop never engaged: alarms %d, peak %d", res.Alarms, res.PeakLevel)
	}
	if res.Stats.Throttles == 0 {
		t.Errorf("no throttle actions: %+v", res.Stats)
	}
}

// TestClosedLoopDeterministic: the whole closed loop — server, detector,
// engine — is bit-reproducible under a fixed seed.
func TestClosedLoopDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop simulation is seconds-long")
	}
	spec := DefaultClosedLoopSpec("KM", Cleansing, 3)
	a, err := ClosedLoop(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClosedLoop(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("closed-loop runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestClosedLoopGolden pins the whole result of two closed-loop studies.
// Server, detector and engine are deterministic, so any rewiring of the
// loop between them (or of the engine's actuator calls) must reproduce
// these values bit for bit.
func TestClosedLoopGolden(t *testing.T) {
	want := []ClosedLoopResult{
		{
			App: "KM", Mode: BusLock,
			CleanTime: 150, AttackedTime: 430.01, MitigatedTime: 193.82999999999998,
			AttackedNormalized: 2.8667333333333334, MitigatedNormalized: 1.2921999999999998,
			Recovered: 0.8434698760758546,
			Alarms:    1, PeakLevel: 4,
			Stats: respond.Stats{Sessions: 1, Events: 2, Throttles: 3, Releases: 1, Migrations: 1, Escalations: 4},
		},
		{
			App: "KM", Mode: Cleansing,
			CleanTime: 150, AttackedTime: 232.09, MitigatedTime: 184.79,
			AttackedNormalized: 1.5472666666666668, MitigatedNormalized: 1.2319333333333333,
			Recovered: 0.5761968571080522,
			Alarms:    2, PeakLevel: 4,
			Stats: respond.Stats{Sessions: 1, Mitigated: 1, Events: 3, Throttles: 5, Partitions: 2, Escalations: 5, Deescalations: 2},
		},
	}
	for _, w := range want {
		got, err := ClosedLoop(DefaultClosedLoopSpec(w.App, w.Mode, 7))
		if err != nil {
			t.Fatal(err)
		}
		if *got != w {
			t.Errorf("%s/%v:\n got %+v\nwant %+v", w.App, w.Mode, *got, w)
		}
	}
}
