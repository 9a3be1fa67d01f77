package period

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"memdos/internal/sim"
)

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = sum
	}
	return out
}

// naivePeriodogram is Periodogram through naiveDFT: the mean-removed
// series' |X_k|^2 / n for k = 0..n/2, and the series' energy sum((x-mean)^2),
// which bounds every bin.
func naivePeriodogram(x []float64) (spec []float64, energy float64) {
	n := len(x)
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v-mean, 0)
		energy += (v - mean) * (v - mean)
	}
	for _, xk := range naiveDFT(c)[:n/2+1] {
		m := cmplx.Abs(xk)
		spec = append(spec, m*m/float64(n))
	}
	return spec, energy
}

// periodogramClose reports whether Periodogram(x) is within tol times
// the series' energy of the naive one, bin by bin.
func periodogramClose(t *testing.T, x []float64, tol float64) bool {
	t.Helper()
	got := Periodogram(x)
	want, energy := naivePeriodogram(x)
	if len(got) != len(want) {
		t.Errorf("n=%d: %d bins, want %d", len(x), len(got), len(want))
		return false
	}
	for k := range got {
		if math.Abs(got[k]-want[k]) > tol*energy {
			t.Errorf("n=%d bin %d: %v, naive DFT %v (energy %v)", len(x), k, got[k], want[k], energy)
			return false
		}
	}
	return true
}

// TestPeriodogramMatchesNaiveDFT holds the direct sum, with its paired
// terms and t = n/2 fold, to the complex O(n^2) transform on every length
// 1-300, odd and even.
func TestPeriodogramMatchesNaiveDFT(t *testing.T) {
	r := sim.NewRNG(2)
	for n := 1; n <= 300; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/7) + r.Normal(0, 5)
		}
		if !periodogramClose(t, x, 1e-9) {
			return
		}
	}
}

func TestPeriodogramDoesNotModifyInput(t *testing.T) {
	// Odd and even lengths, long enough for Estimate to run.
	for _, x := range [][]float64{{3, 1, 4, 1, 5, 9, 2, 6, 5}, {3, 1, 4, 1, 5, 9, 2, 6}} {
		orig := append([]float64(nil), x...)
		Periodogram(x)
		NewEstimator(DefaultEstimatorConfig()).Estimate(x)
		if !slices.Equal(x, orig) {
			t.Fatalf("Periodogram or Estimate modified its input of length %d", len(x))
		}
	}
}

func TestPeriodogramEmpty(t *testing.T) {
	if Periodogram(nil) != nil {
		t.Error("Periodogram of empty input should be nil")
	}
	if NewEstimator(DefaultEstimatorConfig()).Estimate(nil).Periodic {
		t.Error("empty input should not be periodic")
	}
}

// TestParsevalTheorem: the periodogram's bins, each counted for itself
// and its mirror k' = n-k, sum to the mean-removed series' energy.
func TestParsevalTheorem(t *testing.T) {
	r := sim.NewRNG(4)
	for _, n := range []int{99, 100} {
		x := make([]float64, n)
		mean := 0.0
		for i := range x {
			x[i] = r.Normal(0, 2)
			mean += x[i]
		}
		mean /= float64(n)
		var timeEnergy float64
		for _, v := range x {
			timeEnergy += (v - mean) * (v - mean)
		}
		var freqEnergy float64
		for k, p := range Periodogram(x) {
			if k == 0 || 2*k == n {
				freqEnergy += p
			} else {
				freqEnergy += 2 * p
			}
		}
		if math.Abs(timeEnergy-freqEnergy) > 1e-9*timeEnergy {
			t.Errorf("n=%d: Parseval violated: time %v vs freq %v", n, timeEnergy, freqEnergy)
		}
	}
}

func TestPeriodogramPureTone(t *testing.T) {
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = 50 + 10*math.Sin(2*math.Pi*8*float64(i)/float64(n))
	}
	spec := Periodogram(x)
	bestK := 0
	for k := 1; k < len(spec); k++ {
		if spec[k] > spec[bestK] {
			bestK = k
		}
	}
	if bestK != 8 {
		t.Errorf("periodogram peak at bin %d, want 8", bestK)
	}
	// The DC offset must have been removed.
	if spec[0] > 1e-12 {
		t.Errorf("DC power = %v, want ~0", spec[0])
	}
}

func TestACFBasics(t *testing.T) {
	n := 120
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 20)
	}
	acf := ACF(x, 60)
	if acf[0] != 1 {
		t.Errorf("ACF[0] = %v, want 1", acf[0])
	}
	// Lag 20 (the true period) should correlate strongly; lag 10 (the
	// half-period) should anti-correlate.
	if acf[20] < 0.8 {
		t.Errorf("ACF at true period = %v, want > 0.8", acf[20])
	}
	if acf[10] > -0.8 {
		t.Errorf("ACF at half period = %v, want < -0.8", acf[10])
	}
}

func TestACFConstantSeries(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5, 5}
	acf := ACF(x, 4)
	if acf[0] != 1 {
		t.Errorf("ACF[0] = %v", acf[0])
	}
	for lag := 1; lag <= 4; lag++ {
		if acf[lag] != 0 {
			t.Errorf("constant series ACF[%d] = %v, want 0", lag, acf[lag])
		}
	}
}

func TestACFEdgeCases(t *testing.T) {
	if ACF(nil, 5) != nil {
		t.Error("ACF(nil) should be nil")
	}
	if ACF([]float64{1, 2}, -1) != nil {
		t.Error("ACF with negative maxLag should be nil")
	}
	got := ACF([]float64{1, 2, 3}, 99)
	if len(got) != 3 {
		t.Errorf("ACF clamps maxLag: len = %d, want 3", len(got))
	}
}

func TestACFBoundedByOne(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		x := make([]float64, 64)
		for i := range x {
			x[i] = r.Normal(0, 5)
		}
		for _, v := range ACF(x, 63) {
			if v > 1+1e-9 || v < -1-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// sineSeries builds a noisy periodic series with the given period.
func sineSeries(r *sim.RNG, n int, period float64, noise float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/period) + r.Normal(0, noise)
	}
	return x
}

func TestEstimatorFindsKnownPeriod(t *testing.T) {
	r := sim.NewRNG(10)
	est := NewEstimator(DefaultEstimatorConfig())
	for _, period := range []float64{10, 17, 25, 40} {
		x := sineSeries(r, 200, period, 2)
		got := est.Estimate(x)
		if !got.Periodic {
			t.Errorf("period %v not detected", period)
			continue
		}
		if math.Abs(got.Period-period) > period*0.15 {
			t.Errorf("period %v estimated as %v", period, got.Period)
		}
	}
}

func TestEstimatorRejectsNoise(t *testing.T) {
	r := sim.NewRNG(11)
	est := NewEstimator(DefaultEstimatorConfig())
	falsePositives := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 200)
		for i := range x {
			x[i] = r.Normal(100, 10)
		}
		if est.Estimate(x).Periodic {
			falsePositives++
		}
	}
	if frac := float64(falsePositives) / trials; frac > 0.2 {
		t.Errorf("white-noise false positive rate = %v, want <= 0.2", frac)
	}
}

func TestEstimatorShortSeries(t *testing.T) {
	est := NewEstimator(DefaultEstimatorConfig())
	if est.Estimate([]float64{1, 2, 3}).Periodic {
		t.Error("short series should not be periodic")
	}
}

func TestEstimatorTracksElongatedPeriod(t *testing.T) {
	// Under attack the application's period stretches; the estimator must
	// follow. This mirrors SDS/P's detection signal (Observation 2).
	r := sim.NewRNG(12)
	est := NewEstimator(DefaultEstimatorConfig())
	normal := sineSeries(r, 200, 17, 1)
	stretched := sineSeries(r, 200, 26, 1)
	pn := est.Estimate(normal)
	ps := est.Estimate(stretched)
	if !pn.Periodic || !ps.Periodic {
		t.Fatalf("periodicity lost: %+v %+v", pn, ps)
	}
	if ps.Period <= pn.Period {
		t.Errorf("stretched period %v should exceed normal %v", ps.Period, pn.Period)
	}
}

func TestACFOnlyFindsMultiples(t *testing.T) {
	// Documented DFT-ACF motivation: plain ACF may land on a multiple of
	// the true period; DFT-ACF should land on the fundamental. We only
	// assert DFT-ACF's correctness and that ACF-only returns *some* hill.
	r := sim.NewRNG(13)
	x := sineSeries(r, 240, 20, 0.5)
	acfOnly := EstimateACFOnly(x)
	if !acfOnly.Periodic {
		t.Fatal("ACF-only found nothing")
	}
	if mod := math.Mod(acfOnly.Period, 20); mod > 2 && mod < 18 {
		t.Errorf("ACF-only period %v is not near a multiple of 20", acfOnly.Period)
	}
	dftacf := NewEstimator(DefaultEstimatorConfig()).Estimate(x)
	if math.Abs(dftacf.Period-20) > 3 {
		t.Errorf("DFT-ACF period = %v, want ~20", dftacf.Period)
	}
}

func TestDFTOnlyOnTone(t *testing.T) {
	r := sim.NewRNG(14)
	x := sineSeries(r, 200, 25, 0.5)
	got := EstimateDFTOnly(x)
	if !got.Periodic || math.Abs(got.Period-25) > 4 {
		t.Errorf("DFT-only period = %+v, want ~25", got)
	}
	if EstimateDFTOnly([]float64{1, 2}).Periodic {
		t.Error("DFT-only on tiny series should not be periodic")
	}
}

func TestIsACFPeakPlateau(t *testing.T) {
	acf := []float64{0, 0.5, 0.9, 0.9, 0.5, 0}
	if !isACFPeak(acf, 2) || !isACFPeak(acf, 3) {
		t.Error("plateau peak not detected")
	}
	if isACFPeak(acf, 0) || isACFPeak(acf, 5) {
		t.Error("boundary lags cannot be peaks")
	}
	if isACFPeak(acf, 4) {
		t.Error("descending lag misreported as peak")
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

// TestEstimateAllocs bounds what one SDS/P evaluation allocates: its
// scratch comes from the package's pool.
func TestEstimateAllocs(t *testing.T) {
	r := sim.NewRNG(7)
	x := make([]float64, 34) // FN's W_P
	for i := range x {
		x[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/8) + r.Normal(0, 2)
	}
	est := NewEstimator(DefaultEstimatorConfig())
	if !est.Estimate(x).Periodic {
		t.Fatal("test series not periodic")
	}
	// With the race detector sync.Pool drops a quarter of its Puts, and
	// each drop costs the seven allocations of a fresh scratch.
	bound := 0.0
	if raceEnabled {
		bound = 4
	}
	if allocs := testing.AllocsPerRun(100, func() { est.Estimate(x) }); allocs > bound {
		t.Errorf("Estimate allocates %.1f times per call, want at most %.0f", allocs, bound)
	}
}

// FuzzEstimate feeds the estimator arbitrary windows of 1-300 float64s,
// NaN, ±Inf and huge values included. Estimate must not panic; a period
// it accepts must lie on a lag the ACF can validate and carry at least
// the minimum correlation; and on bounded finite windows the periodogram
// must agree with the naive DFT.
func FuzzEstimate(f *testing.F) {
	r := sim.NewRNG(5)
	for _, n := range []int{8, 34, 64, 300} {
		seed := make([]byte, 0, 8*n)
		for i := 0; i < n; i++ {
			v := 100 + 20*math.Sin(2*math.Pi*float64(i)/17) + r.Normal(0, 2)
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Add(binary.LittleEndian.AppendUint64(make([]byte, 8*33), math.Float64bits(math.NaN())))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 300)
		if n == 0 {
			return
		}
		x := make([]float64, n)
		bounded := true
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			// Past 1e100 the energy's squares could overflow.
			bounded = bounded && math.Abs(x[i]) <= 1e100
		}
		e := NewEstimator(DefaultEstimatorConfig()).Estimate(x)
		if e.Periodic && (e.Period < 2 || e.Period > float64(n-2) || !(e.Correlation >= minCorrelation)) {
			t.Fatalf("n=%d: accepted %+v", n, e)
		}
		if bounded {
			periodogramClose(t, x, 1e-9)
		}
	})
}

// BenchmarkEstimate times one SDS/P evaluation at FN's W_P = 34.
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
