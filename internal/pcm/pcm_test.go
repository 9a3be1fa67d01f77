package pcm

import (
	"math"
	"testing"
)

func TestCounterValidation(t *testing.T) {
	if _, err := NewCounter("x", 0); err == nil {
		t.Error("tpcm=0 accepted")
	}
	if _, err := NewCounter("x", 0.01); err != nil {
		t.Errorf("tpcm=0.01 rejected: %v", err)
	}
}

func TestMustNewCounterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNewCounter("x", 0)
}

func TestOneTickPerSample(t *testing.T) {
	c := MustNewCounter("vm", 0.01)
	s := c.Observe(100, 10)
	if s.AccessNum != 100 || s.MissNum != 10 {
		t.Errorf("sample = %+v", s)
	}
	if math.Abs(s.Time-0.01) > 1e-12 {
		t.Errorf("first sample time = %v, want 0.01", s.Time)
	}
}

func TestSampleTimestamps(t *testing.T) {
	c := MustNewCounter("vm", 0.01)
	for i := 1; i <= 10; i++ {
		s := c.Observe(1, 0)
		if want := float64(i) * 0.01; math.Abs(s.Time-want) > 1e-9 {
			t.Errorf("sample %d time = %v, want %v", i, s.Time, want)
		}
	}
}

func TestSeriesRecorded(t *testing.T) {
	c := MustNewCounter("vm", 0.01)
	for i := 0; i < 20; i++ {
		c.Observe(float64(i), float64(i)/2)
	}
	if c.Samples() != 20 {
		t.Fatalf("samples = %d", c.Samples())
	}
	acc, miss := c.AccessSeries(), c.MissSeries()
	if acc.Name != "vm.access" || miss.Name != "vm.miss" {
		t.Errorf("series names %q %q", acc.Name, miss.Name)
	}
	if acc.Values[5] != 5 || miss.Values[5] != 2.5 {
		t.Errorf("series values wrong: %v %v", acc.Values[5], miss.Values[5])
	}
	if acc.Interval != 0.01 {
		t.Errorf("interval = %v", acc.Interval)
	}
}

func TestNegativeCountsPanic(t *testing.T) {
	c := MustNewCounter("vm", 0.01)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative counts")
		}
	}()
	c.Observe(-1, 0)
}

func TestTPCM(t *testing.T) {
	if got := MustNewCounter("vm", 0.05).TPCM(); got != 0.05 {
		t.Errorf("TPCM = %v", got)
	}
}

func TestAddMemFoldsIntoSample(t *testing.T) {
	c := MustNewCounter("mem", 0.01)
	c.AddMem(1000, 2e-7, 10)
	c.AddMem(3000, 6e-7, 30)
	s := c.Observe(1, 0)
	if s.BWBytes != 4000 {
		t.Fatalf("BWBytes = %v, want 4000", s.BWBytes)
	}
	if want := 8e-7 / 40; s.AvgLatency != want {
		t.Fatalf("AvgLatency = %v, want %v", s.AvgLatency, want)
	}
	// Accumulators reset: a DRAM-idle interval reads zero.
	if s = c.Observe(1, 0); s.BWBytes != 0 || s.AvgLatency != 0 {
		t.Fatalf("DRAM accumulators leaked across samples: %+v", s)
	}
}

func TestAddMemNegativePanics(t *testing.T) {
	c := MustNewCounter("mem", 0.01)
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
	c := MustNewCounter("mem", 0.01)
	c.AddMem(5000, 1e-7, 5)
	c.SkipToSample(3)
	if s := c.Observe(1, 0); s.BWBytes != 0 || s.AvgLatency != 0 {
		t.Fatalf("skip kept DRAM accumulation: %+v", s)
	}
}
