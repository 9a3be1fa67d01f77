package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws out of 1000", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child must not replay the parent's stream.
	p := NewRNG(7)
	p.Uint64() // consume the draw Split used
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatal("split child replays parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		f := r.Uniform(10, 50)
		if f < 10 || f >= 50 {
			t.Fatalf("Uniform out of [10,50): %v", f)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("normal mean = %v, want ~3", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exponential(4)
		if x < 0 {
			t.Fatalf("exponential draw negative: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Errorf("exponential mean = %v, want ~4", mean)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		p := NewRNG(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(9)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) hit rate = %v", frac)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(0.01)
	if c.Now() != 0 {
		t.Fatalf("new clock Now = %v, want 0", c.Now())
	}
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	if math.Abs(c.Now()-1.0) > 1e-9 {
		t.Errorf("after 100 ticks of 0.01, Now = %v, want 1.0", c.Now())
	}
	if c.Ticks() != 100 {
		t.Errorf("Ticks = %d, want 100", c.Ticks())
	}
}

func TestClockPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}
