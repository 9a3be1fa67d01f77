package period

import (
	"math"
	"math/cmplx"
	"slices"
	"sort"
	"testing"

	"memdos/internal/sim"
)

// The transforms below are the package's original, plan-free code: every
// call builds its twiddles, chirp and chirp filter afresh. They are kept
// as the reference the cached plans must reproduce bit for bit.

// refFFT is the original FFT.
func refFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := append([]complex128(nil), x...)
		refFFTPow2(out, false)
		return out
	}
	return refBluestein(x, false)
}

// refIFFT is the original IFFT.
func refIFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	var out []complex128
	if n&(n-1) == 0 {
		out = append([]complex128(nil), x...)
		refFFTPow2(out, true)
	} else {
		out = refBluestein(x, true)
	}
	scale := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// refFFTPow2 is the original in-place radix-2 transform.
func refFFTPow2(a []complex128, inverse bool) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length >> 1
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// refBluestein is the original chirp-z transform.
func refBluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		ang := sign * math.Pi * float64(k) * float64(k) / float64(n)
		chirp[k] = cmplx.Rect(1, ang)
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	refFFTPow2(a, false)
	refFFTPow2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	refFFTPow2(a, true)
	scale := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * chirp[k]
	}
	return out
}

// refPeriodogram is the original Periodogram.
func refPeriodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	centered := make([]complex128, n)
	for i, v := range x {
		centered[i] = complex(v-mean, 0)
	}
	spec := refFFT(centered)
	half := n/2 + 1
	out := make([]float64, half)
	for k := 0; k < half; k++ {
		m := cmplx.Abs(spec[k])
		out[k] = m * m / float64(n)
	}
	return out
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameComplexBits is sameBits for complex slices, part by part.
func sameComplexBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestPlansMatchReferenceBits pins the cached plans to the plan-free
// reference: Periodogram, FFT and IFFT must return the same float64 bit
// patterns on every length 1-300, for 20 seeds each, and Estimate must
// agree with an estimate run on the reference periodogram.
func TestPlansMatchReferenceBits(t *testing.T) {
	// 600 plans overflow the cache: the lengths past maxPlans are planned
	// per call, and the cache is emptied again for the tests after this.
	t.Cleanup(forgetPlans)
	est := NewEstimator(DefaultEstimatorConfig())
	for n := 1; n <= 300; n++ {
		for seed := uint64(1); seed <= 20; seed++ {
			r := sim.NewRNG(seed*1000 + uint64(n))
			x := make([]float64, n)
			c := make([]complex128, n)
			for i := range x {
				// A periodic level with noise, like an MA window of a
				// periodic application.
				x[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/(3+float64(seed))) + r.Normal(0, 5)
				c[i] = complex(r.Normal(0, 1), r.Normal(0, 1))
			}
			if got, want := Periodogram(x), refPeriodogram(x); !sameBits(got, want) {
				t.Fatalf("n=%d seed=%d: Periodogram differs from the reference", n, seed)
			}
			if got, want := FFT(c), refFFT(c); !sameComplexBits(got, want) {
				t.Fatalf("n=%d seed=%d: FFT differs from the reference", n, seed)
			}
			if got, want := IFFT(c), refIFFT(c); !sameComplexBits(got, want) {
				t.Fatalf("n=%d seed=%d: IFFT differs from the reference", n, seed)
			}
			if got, want := est.Estimate(x), refEstimate(est, x); got != want {
				t.Fatalf("n=%d seed=%d: Estimate %+v, reference %+v", n, seed, got, want)
			}
		}
		// A constant window has no variance: its ACF is zero past lag 0,
		// whatever the pooled scratch held from the windows above.
		flat := make([]float64, n)
		for i := range flat {
			flat[i] = 100
		}
		if got, want := est.Estimate(flat), refEstimate(est, flat); got != want {
			t.Fatalf("n=%d constant: Estimate %+v, reference %+v", n, got, want)
		}
	}
}

// TestCandidateOrderMatchesSortSlice: slices.SortFunc with byPowerDesc
// leaves candidates in sort.Slice's order, ties included, so the first of
// two equally strong candidates is the same one as before.
func TestCandidateOrderMatchesSortSlice(t *testing.T) {
	r := sim.NewRNG(3)
	for trial := 0; trial < 200; trial++ {
		cands := make([]candidate, 1+trial%150)
		for i := range cands {
			// Few distinct powers: many ties.
			cands[i] = candidate{period: float64(i), power: float64(r.Intn(4))}
		}
		want := append([]candidate(nil), cands...)
		sort.Slice(want, func(i, j int) bool { return want[i].power > want[j].power })
		slices.SortFunc(cands, byPowerDesc)
		if !slices.Equal(cands, want) {
			t.Fatalf("trial %d: order differs from sort.Slice", trial)
		}
	}
}

// refEstimate is the original Estimate: the reference periodogram, the
// public ACF and sort.Slice.
func refEstimate(e *Estimator, x []float64) Estimate {
	n := len(x)
	if n < 8 {
		return Estimate{}
	}
	spec := refPeriodogram(x)
	var meanPower float64
	for _, p := range spec[1:] {
		meanPower += p
	}
	meanPower /= float64(len(spec) - 1)
	threshold := e.cfg.PowerFactor * meanPower
	var cands []candidate
	for k := 1; k < len(spec); k++ {
		if spec[k] < threshold {
			continue
		}
		p := float64(n) / float64(k)
		if p < 2 || p > float64(n)/2 {
			continue
		}
		cands = append(cands, candidate{period: p, power: spec[k]})
	}
	if len(cands) == 0 {
		return Estimate{}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].power > cands[j].power })
	if len(cands) > e.cfg.MaxCandidates {
		cands = cands[:e.cfg.MaxCandidates]
	}
	maxLag := n - 1
	acf := ACF(x, maxLag)
	best := Estimate{}
	for _, c := range cands {
		lag := int(math.Round(c.period))
		radius := int(math.Ceil(e.cfg.SearchRadiusFrac * c.period))
		if radius < 2 {
			radius = 2
		}
		bestLag, bestVal := -1, math.Inf(-1)
		for l := lag - radius; l <= lag+radius; l++ {
			if l < 2 || l > maxLag-1 {
				continue
			}
			if acf[l] > bestVal && isACFPeak(acf, l) {
				bestLag, bestVal = l, acf[l]
			}
		}
		if bestLag < 0 || bestVal < e.cfg.MinCorrelation {
			continue
		}
		if !best.Periodic || bestVal > best.Correlation {
			best = Estimate{Periodic: true, Period: float64(bestLag), Correlation: bestVal, Power: c.power}
		}
	}
	return best
}

// forgetPlans empties the plan cache, which tests that transform many
// lengths fill.
func forgetPlans() {
	plans.Range(func(k, _ any) bool {
		plans.Delete(k)
		return true
	})
	planCount.Store(0)
}

// TestEstimateAllocs bounds what one SDS/P evaluation allocates once the
// plan for its length exists: its scratch comes from the plan's pool.
func TestEstimateAllocs(t *testing.T) {
	r := sim.NewRNG(7)
	x := make([]float64, 34) // FN's W_P
	for i := range x {
		x[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/8) + r.Normal(0, 2)
	}
	forgetPlans() // a full cache would plan W_P per call
	est := NewEstimator(DefaultEstimatorConfig())
	if !est.Estimate(x).Periodic {
		t.Fatal("test series not periodic")
	}
	// With the race detector sync.Pool drops a quarter of its Puts, and
	// each drop costs the five allocations of a fresh scratch. The
	// plan-free reference makes ten.
	bound := 0.0
	if raceEnabled {
		bound = 4
	}
	if allocs := testing.AllocsPerRun(100, func() { est.Estimate(x) }); allocs > bound {
		t.Errorf("Estimate allocates %.1f times per call, want at most %.0f", allocs, bound)
	}
}

// BenchmarkEstimate times one SDS/P evaluation at FN's W_P = 34, a
// Bluestein length.
func BenchmarkEstimate(b *testing.B) {
	r := sim.NewRNG(7)
	x := make([]float64, 34)
	for i := range x {
		x[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/8) + r.Normal(0, 2)
	}
	est := NewEstimator(DefaultEstimatorConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est.Estimate(x)
	}
}

// BenchmarkPeriodogram times the spectrum alone at W_P = 34.
func BenchmarkPeriodogram(b *testing.B) {
	r := sim.NewRNG(7)
	x := make([]float64, 34)
	for i := range x {
		x[i] = r.Normal(100, 10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Periodogram(x)
	}
}

// BenchmarkReferenceEstimate is BenchmarkEstimate on the plan-free
// reference transform, for the before/after.
func BenchmarkReferenceEstimate(b *testing.B) {
	r := sim.NewRNG(7)
	x := make([]float64, 34)
	for i := range x {
		x[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/8) + r.Normal(0, 2)
	}
	est := NewEstimator(DefaultEstimatorConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refEstimate(est, x)
	}
}
