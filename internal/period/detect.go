package period

import (
	"math"
	"slices"
)

// Estimate is the result of a DFT-ACF period search.
type Estimate struct {
	// Periodic reports whether a credible period was found.
	Periodic bool
	// Period is the estimated period in samples (0 when not periodic).
	Period float64
	// Correlation is the ACF value at the accepted period — a confidence
	// proxy in [-1, 1].
	Correlation float64
	// Power is the periodogram power of the accepted candidate frequency.
	Power float64
}

// The estimator's settings.
const (
	// maxCandidates bounds how many periodogram peaks are validated
	// against the ACF (Vlachos et al. use the top few "power hints").
	maxCandidates = 5
	// powerFactor is the significance multiplier: a candidate frequency
	// must carry at least powerFactor times the mean spectral power.
	powerFactor = 3
	// minCorrelation is the minimum ACF value at the candidate period for
	// the period to be accepted.
	minCorrelation = 0.2
	// searchRadiusFrac widens the ACF hill search around each DFT
	// candidate period by this fraction of the period (minimum 2 lags),
	// compensating for the coarse DFT frequency grid.
	searchRadiusFrac = 0.25
)

// EstimatorConfig is empty: the estimator's settings are the constants
// above. The type remains because NewEstimator's callers pass it.
type EstimatorConfig struct{}

// DefaultEstimatorConfig returns the configuration used by SDS/P.
func DefaultEstimatorConfig() EstimatorConfig { return EstimatorConfig{} }

// Estimator finds the dominant period of a time series using the DFT-ACF
// combination of Vlachos et al.: the DFT proposes candidate periods (it
// cannot produce spurious multiples but has coarse resolution and may
// propose frequencies that don't exist), and the ACF validates each
// candidate on a hill (avoiding DFT false frequencies while not wandering
// to ACF's period multiples).
type Estimator struct{}

// NewEstimator returns an Estimator.
func NewEstimator(EstimatorConfig) *Estimator { return &Estimator{} }

// candidate couples a periodogram bin with its implied period.
type candidate struct {
	period float64
	power  float64
}

// byPowerDesc orders candidates strongest first.
func byPowerDesc(a, b candidate) int {
	switch {
	case a.power > b.power:
		return -1
	case a.power < b.power:
		return 1
	}
	return 0
}

// Estimate runs the DFT-ACF search over x. Series shorter than 8 samples
// are reported as non-periodic. Its working memory comes from a pool and
// goes back when it returns.
func (e *Estimator) Estimate(x []float64) Estimate {
	n := len(x)
	if n < 8 {
		return Estimate{}
	}
	sc := getScratch(n)
	defer scratchPool.Put(sc)
	spec := periodogram(sc.spec, x, sc)
	// Mean power over non-DC bins forms the significance floor.
	var meanPower float64
	for _, p := range spec[1:] {
		meanPower += p
	}
	meanPower /= float64(len(spec) - 1)
	threshold := powerFactor * meanPower

	cands := sc.cands[:0]
	for k := 1; k < len(spec); k++ {
		if spec[k] < threshold {
			continue
		}
		p := float64(n) / float64(k)
		// Periods must repeat at least twice inside the window to be
		// observable, and one-sample "periods" are noise.
		if p < 2 || p > float64(n)/2 {
			continue
		}
		cands = append(cands, candidate{period: p, power: spec[k]})
	}
	sc.cands = cands
	if len(cands) == 0 {
		return Estimate{}
	}
	// The same pdqsort as sort.Slice, without its reflection: equal powers
	// end up in the same order.
	slices.SortFunc(cands, byPowerDesc)
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}

	maxLag := n - 1
	acf := acfInto(sc.acf, sc.centered, x)
	best := Estimate{}
	for _, c := range cands {
		lag := int(math.Round(c.period))
		radius := int(math.Ceil(searchRadiusFrac * c.period))
		if radius < 2 {
			radius = 2
		}
		// Find the best ACF hill within the search radius of the DFT
		// candidate.
		bestLag, bestVal := -1, math.Inf(-1)
		for l := lag - radius; l <= lag+radius; l++ {
			if l < 2 || l > maxLag-1 {
				continue
			}
			if acf[l] > bestVal && isACFPeak(acf, l) {
				bestLag, bestVal = l, acf[l]
			}
		}
		if bestLag < 0 || bestVal < minCorrelation {
			continue
		}
		if !best.Periodic || bestVal > best.Correlation {
			best = Estimate{Periodic: true, Period: float64(bestLag), Correlation: bestVal, Power: c.power}
		}
	}
	return best
}

// EstimateDFTOnly returns the dominant period implied by the single
// strongest periodogram bin with no ACF validation. It exists for the
// ablation study comparing plain DFT against DFT-ACF.
func EstimateDFTOnly(x []float64) Estimate {
	n := len(x)
	if n < 8 {
		return Estimate{}
	}
	spec := Periodogram(x)
	bestK, bestP := 0, 0.0
	for k := 1; k < len(spec); k++ {
		if spec[k] > bestP {
			bestK, bestP = k, spec[k]
		}
	}
	if bestK == 0 {
		return Estimate{}
	}
	return Estimate{Periodic: true, Period: float64(n) / float64(bestK), Power: bestP}
}

// EstimateACFOnly returns the first significant ACF hill with no DFT
// guidance. It exists for the ablation study: plain ACF tends to lock onto
// multiples of the true period. A hill must reach the estimator's minimum
// correlation.
func EstimateACFOnly(x []float64) Estimate {
	n := len(x)
	if n < 8 {
		return Estimate{}
	}
	acf := ACF(x, n-1)
	bestLag, bestVal := -1, math.Inf(-1)
	for l := 2; l < n-1; l++ {
		if isACFPeak(acf, l) && acf[l] >= minCorrelation && acf[l] > bestVal {
			bestLag, bestVal = l, acf[l]
		}
	}
	if bestLag < 0 {
		return Estimate{}
	}
	return Estimate{Periodic: true, Period: float64(bestLag), Correlation: bestVal}
}
