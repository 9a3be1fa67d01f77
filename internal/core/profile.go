package core

import (
	"fmt"
	"math"

	"memdos/internal/period"
	"memdos/internal/stats"
)

// Profile is the per-application "ground truth" SDS gathers while a VM is
// known to be safe (immediately after it starts or migrates, before an
// adversary can co-locate — Section IV-B.1).
type Profile struct {
	// AccessMean/AccessStd summarize the EWMA of the AccessNum channel.
	AccessMean, AccessStd float64
	// MissMean/MissStd summarize the EWMA of the MissNum channel.
	MissMean, MissStd float64
	// Periodic reports whether the application shows a stable periodic
	// pattern; Period is its period in MA samples.
	Periodic bool
	Period   float64
}

// BuildProfile derives a Profile from attack-free raw PCM samples of the
// two counter channels, smoothed bit for bit as SDS/B smooths them. It
// needs at least one full MA window of samples and refuses non-finite
// moments.
func BuildProfile(access, miss []float64, p Params) (Profile, error) {
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	if len(access) < p.W || len(miss) < p.W {
		return Profile{}, fmt.Errorf("core: profiling needs at least W=%d samples (got %d/%d)", p.W, len(access), len(miss))
	}
	accMA := stats.MA(access, p.W, p.DW)

	var prof Profile
	prof.AccessMean, prof.AccessStd = ewmaMeanStd(accMA, p.Alpha)
	prof.MissMean, prof.MissStd = ewmaMeanStd(stats.MA(miss, p.W, p.DW), p.Alpha)
	if !prof.finite() {
		return Profile{}, fmt.Errorf("core: profiling samples give a non-finite profile %+v", prof)
	}

	if p, ok := stablePeriod(accMA); ok {
		prof.Periodic = true
		prof.Period = p
	}
	return prof, nil
}

// ewmaMeanStd smooths the MA series ma through the EWMA stream SDS/B runs
// and returns the mean and standard deviation of its values.
func ewmaMeanStd(ma []float64, alpha float64) (mean, std float64) {
	e := stats.NewEWMAStream(alpha)
	ew := make([]float64, len(ma))
	for i, v := range ma {
		ew[i] = e.Push(v)
	}
	return stats.MeanStd(ew)
}

// stablePeriod implements the paper's periodicity check: an application is
// periodic only if a "relatively constant period" exists in its MA series.
// The series is split into halves that must independently show a credible
// (well-correlated) period, and the two estimates must agree.
func stablePeriod(ma []float64) (float64, bool) {
	if len(ma) < 16 {
		return 0, false
	}
	est := period.NewEstimator(period.DefaultEstimatorConfig())
	whole := est.Estimate(ma)
	if !whole.Periodic || whole.Correlation < 0.4 {
		return 0, false
	}
	half := len(ma) / 2
	first := est.Estimate(ma[:half])
	second := est.Estimate(ma[half:])
	if !first.Periodic || !second.Periodic {
		return 0, false
	}
	if relDiff(first.Period, whole.Period) > 0.2 || relDiff(second.Period, whole.Period) > 0.2 {
		return 0, false
	}
	return whole.Period, true
}

// finite reports whether the profile's four moments are all finite: a
// NaN or infinite bound blinds SDS/B.
func (pr Profile) finite() bool {
	for _, m := range [...]float64{pr.AccessMean, pr.AccessStd, pr.MissMean, pr.MissStd} {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return false
		}
	}
	return true
}

// relDiff returns |a-b| / b.
func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// AccessBounds returns SDS/B's normal range for the AccessNum channel.
func (pr Profile) AccessBounds(k float64) (lo, hi float64) {
	return pr.AccessMean - k*pr.AccessStd, pr.AccessMean + k*pr.AccessStd
}

// MissBounds returns SDS/B's normal range for the MissNum channel.
func (pr Profile) MissBounds(k float64) (lo, hi float64) {
	return pr.MissMean - k*pr.MissStd, pr.MissMean + k*pr.MissStd
}
