package pcm

import (
	"math"
	"testing"
)

func TestCounterValidation(t *testing.T) {
	if _, err := NewCounter(0); err == nil {
		t.Error("tpcm=0 accepted")
	}
	if _, err := NewCounter(0.01); err != nil {
		t.Errorf("tpcm=0.01 rejected: %v", err)
	}
}

func TestMustNewCounterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNewCounter(0)
}

func TestOneTickPerSample(t *testing.T) {
	c := MustNewCounter(0.01)
	var s Sample
	c.Observe(&s, 100, 10)
	if s.AccessNum != 100 || s.MissNum != 10 {
		t.Errorf("sample = %+v", s)
	}
	if math.Abs(s.Time-0.01) > 1e-12 {
		t.Errorf("first sample time = %v, want 0.01", s.Time)
	}
}

func TestSampleTimestamps(t *testing.T) {
	c := MustNewCounter(0.01)
	for i := 1; i <= 10; i++ {
		var s Sample
		c.Observe(&s, 1, 0)
		if want := float64(i) * 0.01; math.Abs(s.Time-want) > 1e-9 {
			t.Errorf("sample %d time = %v, want %v", i, s.Time, want)
		}
	}
}

// TestSamplesCarryCounts: each Observe's sample carries exactly the
// counts it was given; the sample is the only record of them.
func TestSamplesCarryCounts(t *testing.T) {
	c := MustNewCounter(0.01)
	for i := 0; i < 20; i++ {
		var s Sample
		c.Observe(&s, float64(i), float64(i)/2)
		if s.AccessNum != float64(i) || s.MissNum != float64(i)/2 {
			t.Fatalf("sample %d = %+v, want access %d miss %v", i, s, i, float64(i)/2)
		}
	}
}

func TestNegativeCountsPanic(t *testing.T) {
	c := MustNewCounter(0.01)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative counts")
		}
	}()
	c.Observe(new(Sample), -1, 0)
}

func TestTPCM(t *testing.T) {
	if got := MustNewCounter(0.05).TPCM(); got != 0.05 {
		t.Errorf("TPCM = %v", got)
	}
}

func TestAddMemFoldsIntoSample(t *testing.T) {
	c := MustNewCounter(0.01)
	c.AddMem(1000, 2e-7, 10)
	c.AddMem(3000, 6e-7, 30)
	var s Sample
	c.Observe(&s, 1, 0)
	if s.BWBytes != 4000 {
		t.Fatalf("BWBytes = %v, want 4000", s.BWBytes)
	}
	if want := 8e-7 / 40; s.AvgLatency != want {
		t.Fatalf("AvgLatency = %v, want %v", s.AvgLatency, want)
	}
	// Accumulators reset: a DRAM-idle interval reads zero.
	if c.Observe(&s, 1, 0); s.BWBytes != 0 || s.AvgLatency != 0 {
		t.Fatalf("DRAM accumulators leaked across samples: %+v", s)
	}
}

func TestAddMemNegativePanics(t *testing.T) {
	c := MustNewCounter(0.01)
	for i, fn := range []func(){
		func() { c.AddMem(-1, 0, 0) },
		func() { c.AddMem(0, -1, 0) },
		func() { c.AddMem(0, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: negative AddMem did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSkipToSampleDropsDRAMAccum(t *testing.T) {
	c := MustNewCounter(0.01)
	c.AddMem(5000, 1e-7, 5)
	c.SkipToSample(3)
	var s Sample
	c.Observe(&s, 1, 0)
	if s.BWBytes != 0 || s.AvgLatency != 0 {
		t.Fatalf("skip kept DRAM accumulation: %+v", s)
	}
	// The skipped samples keep their place on the timeline: the next one
	// is the fourth.
	if math.Abs(s.Time-0.04) > 1e-12 {
		t.Fatalf("sample after SkipToSample(3) at %v, want 0.04", s.Time)
	}
	c.SkipToSample(2)
	if c.Observe(&s, 1, 0); math.Abs(s.Time-0.05) > 1e-12 {
		t.Fatalf("backwards skip moved the timeline: next sample at %v, want 0.05", s.Time)
	}
}

// TestObserveWritesEveryField: Observe overwrites all five fields of its
// destination, so a reused slot keeps nothing of its previous sample (a
// DRAM-idle interval's AvgLatency included).
func TestObserveWritesEveryField(t *testing.T) {
	c := MustNewCounter(0.01)
	nan := math.NaN()
	s := Sample{Time: nan, AccessNum: nan, MissNum: nan, BWBytes: nan, AvgLatency: nan}
	c.Observe(&s, 3, 1)
	if want := (Sample{Time: 0.01, AccessNum: 3, MissNum: 1}); s != want {
		t.Fatalf("sample = %+v, want %+v", s, want)
	}
}

// TestCounterRefusesNonFinite: Observe and AddMem refuse, argument by
// argument, every value Sample.Validate would refuse in a sample.
func TestCounterRefusesNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	var cases []func(*Counter)
	for _, v := range bad {
		cases = append(cases,
			func(c *Counter) { c.Observe(new(Sample), v, 0) },
			func(c *Counter) { c.Observe(new(Sample), 0, v) },
			func(c *Counter) { c.AddMem(v, 0, 0) },
			func(c *Counter) { c.AddMem(0, v, 0) },
			func(c *Counter) { c.AddMem(0, 0, v) },
		)
	}
	for i, fn := range cases {
		c := MustNewCounter(0.01)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d (value %v, argument %d): accepted", i, bad[i/5], i%5)
				}
			}()
			fn(c)
		}()
		// A refused call leaves the counter untouched.
		var s Sample
		c.Observe(&s, 0, 0)
		if s != (Sample{Time: 0.01}) {
			t.Errorf("case %d: counter moved after a refused call: %+v", i, s)
		}
	}
}
