package stats

import (
	"math"
	"testing"
	"testing/quick"

	"memdos/internal/sim"
)

func TestMABasic(t *testing.T) {
	raw := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := MA(raw, 4, 2)
	want := []float64{2.5, 4.5, 6.5}
	if len(got) != len(want) {
		t.Fatalf("MA len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMAShortInput(t *testing.T) {
	if got := MA([]float64{1, 2}, 4, 2); got != nil {
		t.Errorf("MA on short input = %v, want nil", got)
	}
}

func TestMAPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MA with w=0 did not panic")
		}
	}()
	MA([]float64{1}, 0, 1)
}

func TestMAWindowEqualsStep(t *testing.T) {
	raw := []float64{2, 4, 6, 8}
	got := MA(raw, 2, 2)
	want := []float64{3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMAMatchesNaive(t *testing.T) {
	// Property: MA is the per-window mean summed from zero, bit for bit,
	// for steps below, at and above the window.
	check := func(seed uint64, wRaw, dwRaw uint8) bool {
		w := int(wRaw%20) + 1
		dw := int(dwRaw%10) + 1
		r := sim.NewRNG(seed)
		raw := make([]float64, 100)
		for i := range raw {
			raw[i] = r.Normal(0, 10)
		}
		got := MA(raw, w, dw)
		if len(got) != (len(raw)-w)/dw+1 {
			return false
		}
		for n := range got {
			var sum float64
			for _, v := range raw[n*dw : n*dw+w] {
				sum += v
			}
			if math.Float64bits(got[n]) != math.Float64bits(sum/float64(w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// ewma pushes xs through one EWMAStream and returns every value it emits.
func ewma(xs []float64, alpha float64) []float64 {
	s := NewEWMAStream(alpha)
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = s.Push(v)
	}
	return out
}

func TestEWMAAlphaOne(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	got := ewma(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("EWMA alpha=1 should be identity, got %v", got)
		}
	}
}

func TestEWMARecurrence(t *testing.T) {
	s := NewEWMAStream(0.5)
	if s.Value() != 0 {
		t.Errorf("Value before the first Push = %v, want 0", s.Value())
	}
	xs := []float64{10, 20, 30}
	for i, want := range []float64{10, 15, 22.5} {
		if got := s.Push(xs[i]); got != want {
			t.Errorf("EWMA[%d] = %v, want %v", i, got, want)
		}
		if s.Value() != want {
			t.Errorf("Value after EWMA[%d] = %v, want %v", i, s.Value(), want)
		}
	}
}

func TestEWMASmoothsMoreWithSmallAlpha(t *testing.T) {
	r := sim.NewRNG(11)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Normal(100, 15)
	}
	varOf := func(v []float64) float64 { _, s := MeanStd(v); return s * s }
	if varOf(ewma(xs, 0.1)) >= varOf(ewma(xs, 0.9)) {
		t.Error("smaller alpha should reduce variance more")
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EWMA alpha=%v did not panic", alpha)
				}
			}()
			NewEWMAStream(alpha)
		}()
	}
}

func TestMAStreamMatchesBatch(t *testing.T) {
	r := sim.NewRNG(21)
	raw := make([]float64, 400)
	for i := range raw {
		raw[i] = r.Float64() * 100
	}
	const w, dw = 50, 20
	batch := MA(raw, w, dw)
	s := NewMAStream(w, dw)
	var stream []float64
	for _, v := range raw {
		avg, neg, ok := s.Push(v, -v)
		if ok {
			if neg != -avg {
				t.Errorf("second channel %v, want %v", neg, -avg)
			}
			stream = append(stream, avg)
		}
	}
	if len(stream) != len(batch) {
		t.Fatalf("stream emitted %d values, batch %d", len(stream), len(batch))
	}
	for i := range batch {
		if math.Float64bits(stream[i]) != math.Float64bits(batch[i]) {
			t.Errorf("stream[%d] = %v, batch %v", i, stream[i], batch[i])
		}
	}
}

// TestMAStreamPushDoesNotAllocate: the running sums are one slice of
// ceil(W/dW) pairs made by the first Push and never grown, however long
// the stream runs; the corners include the Figs. 19/21 sweeps' W = 1000,
// dW = 50 and W = 200, dW = 20.
func TestMAStreamPushDoesNotAllocate(t *testing.T) {
	for _, c := range [][2]int{{200, 50}, {1000, 50}, {200, 20}, {50, 20}, {7, 7}, {3, 1}} {
		s := NewMAStream(c[0], c[1])
		s.Push(0, 0)
		v := 0.0
		allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < 4*c[0]; i++ {
				v++
				s.Push(v, -v)
			}
		})
		if allocs != 0 {
			t.Errorf("MAStream(%d, %d): %.1f allocs per %d pushes, want 0", c[0], c[1], allocs, 4*c[0])
		}
	}
}

func TestMAStreamPanicsOnBadArguments(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {5, 0}, {-1, -1}, {5, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMAStream(%d, %d) did not panic", c[0], c[1])
				}
			}()
			NewMAStream(c[0], c[1])
		}()
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, s := MeanStd(xs)
	if m != 5 || math.Abs(s-2) > 1e-12 {
		t.Errorf("MeanStd = %v, %v; want 5, 2", m, s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Error("empty input should give zeros")
	}
	if _, s := MeanStd([]float64{42}); s != 0 {
		t.Error("single sample std should be 0")
	}
}

func TestChebyshevPaperParameters(t *testing.T) {
	// The paper selects k=1.125, H_C=30 for 99.9% confidence.
	h, err := ChebyshevH(1.125, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if h != 30 {
		t.Errorf("ChebyshevH(1.125, 0.999) = %d, want 30", h)
	}
	// The paper also mentions k=2, H_C=6 as a valid choice; the minimal H
	// meeting the bound is 5 ((1/4)^5 = 0.00098 <= 0.001), so 6 must also
	// satisfy it while 4 must not.
	h2, err := ChebyshevH(2, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != 5 {
		t.Errorf("ChebyshevH(2, 0.999) = %d, want 5", h2)
	}
	if ChebyshevFalseAlarmBound(2, 6) > 0.001 {
		t.Error("paper's (k=2, H=6) should satisfy the 99.9%% bound")
	}
	if ChebyshevFalseAlarmBound(2, 4) <= 0.001 {
		t.Error("(k=2, H=4) should not satisfy the 99.9%% bound")
	}
}

func TestChebyshevRoundTrip(t *testing.T) {
	check := func(kRaw, confRaw uint16) bool {
		k := 1.01 + float64(kRaw%300)/100 // 1.01..4.01
		conf := 0.9 + float64(confRaw%99)/1000
		h, err := ChebyshevH(k, conf)
		if err != nil {
			return false
		}
		// The derived H must actually satisfy the bound.
		return ChebyshevFalseAlarmBound(k, h) <= 1-conf+1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestChebyshevKInverse(t *testing.T) {
	k, err := ChebyshevK(30, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1.122) > 0.01 {
		t.Errorf("ChebyshevK(30, 0.999) = %v, want ~1.122", k)
	}
}

func TestChebyshevErrors(t *testing.T) {
	if _, err := ChebyshevH(1.0, 0.999); err == nil {
		t.Error("ChebyshevH with k=1 should error")
	}
	if _, err := ChebyshevH(2, 1.5); err == nil {
		t.Error("ChebyshevH with confidence>1 should error")
	}
	if _, err := ChebyshevK(0, 0.9); err == nil {
		t.Error("ChebyshevK with H=0 should error")
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	r := sim.NewRNG(31)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
	}
	res, err := KSTest(xs, xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Errorf("KS D on identical samples = %v, want 0", res.D)
	}
	if res.Reject {
		t.Error("KS should not reject identical samples")
	}
}

func TestKSSameDistribution(t *testing.T) {
	// Samples from the same distribution should rarely be rejected.
	r := sim.NewRNG(32)
	rejects := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 100)
		b := make([]float64, 100)
		for i := range a {
			a[i] = r.Normal(10, 2)
			b[i] = r.Normal(10, 2)
		}
		res, err := KSTest(a, b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejects++
		}
	}
	// Expected rejection rate ~5%; allow generous slack.
	if frac := float64(rejects) / trials; frac > 0.12 {
		t.Errorf("same-distribution rejection rate = %v, want <= 0.12", frac)
	}
}

func TestKSDifferentDistributions(t *testing.T) {
	r := sim.NewRNG(33)
	detected := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 100)
		b := make([]float64, 100)
		for i := range a {
			a[i] = r.Normal(10, 2)
			b[i] = r.Normal(13, 2) // shifted mean
		}
		res, err := KSTest(a, b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			detected++
		}
	}
	if frac := float64(detected) / trials; frac < 0.95 {
		t.Errorf("shifted-distribution detection rate = %v, want >= 0.95", frac)
	}
}

func TestKSStatisticKnownValue(t *testing.T) {
	// a entirely below b: the empirical CDFs separate fully, D = 1.
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	res, err := KSTest(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 1 {
		t.Errorf("fully separated samples D = %v, want 1", res.D)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KSTest(nil, []float64{1}, 0.05); err == nil {
		t.Error("KS with empty sample should error")
	}
	if _, err := KSTest([]float64{1}, []float64{2}, 0); err == nil {
		t.Error("KS with alpha=0 should error")
	}
}

func TestKSSymmetry(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		a := make([]float64, 50)
		b := make([]float64, 70)
		for i := range a {
			a[i] = r.Float64()
		}
		for i := range b {
			b[i] = r.Float64() * 1.3
		}
		r1, err1 := KSTest(a, b, 0.05)
		r2, err2 := KSTest(b, a, 0.05)
		return err1 == nil && err2 == nil &&
			math.Abs(r1.D-r2.D) < 1e-12 && math.Abs(r1.PValue-r2.PValue) < 1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestKSPValueMonotonicity(t *testing.T) {
	// Larger lambda must not increase the p-value.
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		p := ksPValue(l)
		if p > prev+1e-12 {
			t.Fatalf("ksPValue not monotone at lambda=%v", l)
		}
		prev = p
	}
	if ksPValue(0) != 1 {
		t.Error("ksPValue(0) should be 1")
	}
}
