package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"memdos/internal/dnn"
	"memdos/internal/pcm"
	"memdos/internal/sim"
)

// stateSamples is a deterministic stream: clean sinusoid around the
// synthetic profile, then a bus-locking style AccessNum collapse.
func stateSamples(n int) []pcm.Sample {
	r := sim.NewRNG(42)
	out := make([]pcm.Sample, n)
	for i := range out {
		access := 100 + 10*math.Sin(2*math.Pi*float64(i)/10) + r.Float64()
		miss := 10 + r.Float64()
		if i >= n/2 {
			access *= 0.3
		}
		out[i] = pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: access, MissNum: miss}
	}
	return out
}

func stateParams() Params {
	p := DefaultParams()
	p.W, p.DW, p.HC, p.HP, p.HD, p.DWP = 20, 10, 2, 1, 1, 1
	return p
}

func replayAll(d Detector, samples []pcm.Sample) []Decision {
	var out []Decision
	for _, s := range samples {
		out = append(out, d.Push(s)...)
	}
	return out
}

// checkSnapshot replays a stream, requires decisions that a second build
// of the same detector reproduces, and a non-empty state snapshot.
func checkSnapshot(t *testing.T, name string, build func() Detector, samples []pcm.Sample) {
	t.Helper()
	d := build()
	first := replayAll(d, samples)
	if len(first) == 0 {
		t.Fatalf("%s: stream produced no decisions", name)
	}
	fresh := replayAll(build(), samples)
	if !reflect.DeepEqual(first, fresh) {
		t.Errorf("%s: fresh-build decisions diverge", name)
	}
	if snap := SnapshotDetector(d); len(snap) == 0 {
		t.Errorf("%s: no state snapshot", name)
	}
}

func TestSnapshotAllDetectors(t *testing.T) {
	p := stateParams()
	prof := Profile{AccessMean: 100, AccessStd: 8, MissMean: 10, MissStd: 2}
	periodic := prof
	periodic.Periodic = true
	periodic.Period = 1 // MA of a period-10 sinusoid at W=20,DW=10
	samples := stateSamples(1600)

	rng := sim.NewRNG(7)
	cascade, err := dnn.NewCascade(2, dnn.CompactLSTMFCNConfig, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Untrained cascade: supply an identity normalization so Classify runs.
	cascade.Norm = dnn.ChannelNorm{Mean: []float64{0, 0}, Std: []float64{1, 1}}

	cases := []struct {
		name  string
		build func() Detector
	}{
		{"SDS/B", func() Detector { d, _ := NewSDSB(prof, p); return d }},
		{"SDS/P", func() Detector { d, _ := NewSDSP(periodic, p); return d }},
		{"SDS", func() Detector { d, _ := NewSDS(periodic, p); return d }},
		{"SDS/U", func() Detector { d, _ := NewSDSU(func() float64 { return 0.9 }, p); return d }},
		{"KStest", func() Detector { d, _ := NewKSTestDetector(DefaultKSParams(), nil); return d }},
		{"DNN", func() Detector { d, _ := NewDNNDetector(cascade, p); return d }},
		{"RawThreshold", func() Detector { d, _ := NewRawThreshold(0.5); return d }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkSnapshot(t, tc.name, tc.build, samples)
		})
	}
}

func TestSnapshotContents(t *testing.T) {
	p := stateParams()
	prof := Profile{AccessMean: 100, AccessStd: 8, MissMean: 10, MissStd: 2}
	d, err := NewSDSB(prof, p)
	if err != nil {
		t.Fatal(err)
	}
	samples := stateSamples(1600)
	replayAll(d, samples)
	snap := d.StateSnapshot()
	lo, hi := prof.AccessBounds(p.K)
	if snap["access_lo"] != lo || snap["access_hi"] != hi {
		t.Errorf("bounds in snapshot = %v/%v, want %v/%v", snap["access_lo"], snap["access_hi"], lo, hi)
	}
	// The attacked tail keeps the EWMA below the floor: the violation
	// streak must sit at its cap.
	if snap["access_violations"] != float64(p.HC) {
		t.Errorf("access_violations = %v, want %v", snap["access_violations"], p.HC)
	}
	if snap["access_ewma"] >= lo {
		t.Errorf("access_ewma = %v, want < %v under attack", snap["access_ewma"], lo)
	}

	ks, _ := NewKSTestDetector(DefaultKSParams(), nil)
	replayAll(ks, samples)
	ksSnap := ks.StateSnapshot()
	for _, key := range []string{"phase", "alarm", "consecutive_rejections", "reference_samples"} {
		if _, ok := ksSnap[key]; !ok {
			t.Errorf("KStest snapshot missing %q: %v", key, ksSnap)
		}
	}
}

// NewDNNDetector compiles the cascade for p.W, so a window the cascade
// cannot score is an error at construction — not a float64 fall-back, and
// not a panic at the first decision.
func TestNewDNNDetectorReturnsCompileError(t *testing.T) {
	cascade, err := dnn.NewCascade(2, dnn.CompactLSTMFCNConfig, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	p := stateParams()
	if _, err := NewDNNDetector(cascade, p); err == nil || !strings.Contains(err.Error(), "no fitted channel normalization") {
		t.Errorf("unfitted norm: err = %v", err)
	}
	cascade.Norm = dnn.ChannelNorm{Mean: []float64{0, 0}, Std: []float64{1, 1}}
	p.W, p.DW = 6, 3
	if _, err := NewDNNDetector(cascade, p); err == nil || !strings.Contains(err.Error(), "too short for kernel") {
		t.Errorf("6-sample window: err = %v", err)
	}
}

// TestPushSteadyStateAllocs pins the two sliding windows that used to
// walk off their arrays: once warm, SDS on a periodic profile and the DNN
// detector allocate nothing per sample but the one-element []Decision
// they emit. SDS/P's period estimate builds an FFT workspace per call and
// is not part of the claim, so DWP is pushed out of the measured span;
// the window slide under test runs on every MA value regardless.
func TestPushSteadyStateAllocs(t *testing.T) {
	p := DefaultParams()
	p.DWP = 1 << 30
	sds, err := NewSDS(profileApp(t, "FN", 90, p), p)
	if err != nil {
		t.Fatal(err)
	}
	if !sds.Periodic() {
		t.Fatal("FN profile is not periodic: SDS/P's window is not exercised")
	}

	rng := sim.NewRNG(7)
	cascade, err := dnn.NewCascade(2, dnn.CompactLSTMFCNConfig, rng)
	if err != nil {
		t.Fatal(err)
	}
	cascade.Norm = dnn.ChannelNorm{Mean: []float64{0, 0}, Std: []float64{1, 1}}
	dp := stateParams()
	det, err := NewDNNDetector(cascade, dp)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		det  Detector
		dw   int
		warm int // samples until every window is full
	}{
		{"SDS", sds, p.DW, p.W + p.DW*sds.p.windowSize()},
		{"DNN", det, dp.DW, 2 * dp.W},
	} {
		const decisionsPerRun = 64
		samples := stateSamples(decisionsPerRun * tc.dw)
		for i := 0; i < tc.warm; i++ {
			tc.det.Push(samples[i%len(samples)])
		}
		decisions := 0
		allocs := testing.AllocsPerRun(5, func() {
			decisions = 0
			for _, s := range samples {
				decisions += len(tc.det.Push(s))
			}
		})
		if decisions != decisionsPerRun {
			t.Errorf("%s: %d decisions per run, want %d", tc.name, decisions, decisionsPerRun)
		}
		if allocs != float64(decisions) {
			t.Errorf("%s: %.0f allocations for %d emitted decisions", tc.name, allocs, decisions)
		}
	}
}
