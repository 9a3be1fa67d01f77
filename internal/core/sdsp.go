package core

import (
	"fmt"
	"math"

	"memdos/internal/pcm"
	"memdos/internal/period"
	"memdos/internal/stats"
)

// SDSP is the Period-based Statistical Detection Scheme for periodic
// applications (Section IV-B.2).
//
// It maintains the moving average of the AccessNum channel and, every DWP
// new MA values, estimates the period of the latest W_P = WPFactor*p MA
// values with the DFT-ACF method. H_P consecutive estimates that deviate
// from the profiled normal period (or fail to find a period at all) raise
// the alarm — capturing the paper's Observation (2) that both attacks
// prolong the victim's period.
type SDSP struct {
	params  Params
	profile Profile

	ma        stats.MAStream
	maHistory []float64
	sinceEval int

	estimator *period.Estimator
	viol      violationCounter

	lastPeriod float64
}

// NewSDSP returns an SDS/P detector. The profile must be periodic.
func NewSDSP(profile Profile, p Params) (*SDSP, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !profile.Periodic || !(profile.Period > 0) || math.IsInf(profile.Period, 1) {
		return nil, fmt.Errorf("core: SDS/P requires a periodic profile with a finite positive period (got %+v)", profile)
	}
	return &SDSP{
		params:    p,
		profile:   profile,
		ma:        stats.NewMAStream(p.W, p.DW),
		estimator: period.NewEstimator(period.DefaultEstimatorConfig()),
		viol:      violationCounter{threshold: p.HP},
	}, nil
}

// Name returns "SDS/P".
func (d *SDSP) Name() string { return "SDS/P" }

// windowSize returns W_P in MA samples.
func (d *SDSP) windowSize() int {
	wp := int(math.Round(float64(d.params.WPFactor) * d.profile.Period))
	if wp < 8 {
		wp = 8
	}
	return wp
}

// Push feeds one PCM sample. A decision is produced each time DWP new MA
// values have accumulated and a full W_P window is available.
func (d *SDSP) Push(s pcm.Sample) []Decision {
	avg, _, ok := d.ma.Push(s.AccessNum, 0)
	if !ok {
		return nil
	}
	alarm, ok := d.pushMA(avg)
	if !ok {
		return nil
	}
	return []Decision{{Time: s.Time, Alarm: alarm}}
}

// pushMA feeds one AccessNum moving-average value: the scheme past its
// own MA stage, which the combined SDS enters with SDS/B's average. ok
// reports whether the value completed an evaluation.
func (d *SDSP) pushMA(avg float64) (alarm, ok bool) {
	wp := d.windowSize()
	if len(d.maHistory) < wp {
		d.maHistory = append(d.maHistory, avg)
	} else {
		// Slide in place: re-slicing past the oldest value would walk
		// the slice off its array.
		copy(d.maHistory, d.maHistory[1:])
		d.maHistory[wp-1] = avg
	}
	d.sinceEval++
	if d.sinceEval < d.params.DWP || len(d.maHistory) < wp {
		return false, false
	}
	d.sinceEval = 0

	est := d.estimator.Estimate(d.maHistory)
	deviant := true
	if est.Periodic {
		d.lastPeriod = est.Period
		rel := math.Abs(est.Period-d.profile.Period) / d.profile.Period
		deviant = rel > d.params.PeriodTolerance
	} else {
		d.lastPeriod = 0
	}
	return d.viol.observe(deviant), true
}

// LastPeriod returns the most recent period estimate in MA samples (0 when
// the last window showed no credible period), for Fig. 8 style plots.
func (d *SDSP) LastPeriod() float64 { return d.lastPeriod }
