package core

import (
	"fmt"

	"memdos/internal/pcm"
	"memdos/internal/stats"
)

// SDSB is the Boundary-based Statistical Detection Scheme (Section IV-B.1).
//
// It smooths each counter channel with a sliding-window moving average
// followed by an EWMA, and checks every EWMA value against the profiled
// normal range [mu_E - k*sigma_E, mu_E + k*sigma_E]. H_C consecutive
// out-of-range values raise the alarm; by Chebyshev's inequality the
// false-alarm probability is bounded by (1/k^2)^H_C regardless of the
// application's counter distribution.
//
// Both channels are monitored because the two attacks leave different
// footprints: bus locking depresses AccessNum, LLC cleansing inflates
// MissNum. An excursion on either channel is anomalous.
type SDSB struct {
	params  Params
	profile Profile

	ma     stats.MAStream // AccessNum, MissNum
	accEW  stats.EWMAStream
	missEW stats.EWMAStream

	accViol  violationCounter
	missViol violationCounter
}

// NewSDSB returns an SDS/B detector for an application with the given
// attack-free profile.
func NewSDSB(profile Profile, p Params) (*SDSB, error) {
	d, err := newSDSB(profile, p)
	if err != nil {
		return nil, err
	}
	return &d, nil
}

// newSDSB is NewSDSB by value, for the combined SDS to embed.
func newSDSB(profile Profile, p Params) (SDSB, error) {
	if err := p.Validate(); err != nil {
		return SDSB{}, err
	}
	if profile.AccessStd < 0 || profile.MissStd < 0 || !profile.finite() {
		return SDSB{}, fmt.Errorf("core: negative or non-finite profile moments %+v", profile)
	}
	return SDSB{
		params:   p,
		profile:  profile,
		ma:       stats.NewMAStream(p.W, p.DW),
		accEW:    stats.NewEWMAStream(p.Alpha),
		missEW:   stats.NewEWMAStream(p.Alpha),
		accViol:  violationCounter{threshold: p.HC},
		missViol: violationCounter{threshold: p.HC},
	}, nil
}

// Name returns "SDS/B".
func (d *SDSB) Name() string { return "SDS/B" }

// Push feeds one PCM sample. A decision is produced whenever a new MA
// window completes (every DW samples).
func (d *SDSB) Push(s pcm.Sample) []Decision {
	_, dec := d.step(s)
	return dec
}

// step is Push that also hands back the AccessNum moving average behind
// the decision (meaningful only when a decision is returned), so the
// combined SDS can feed SDS/P from it instead of averaging twice.
func (d *SDSB) step(s pcm.Sample) (accAvg float64, dec []Decision) {
	accAvg, missAvg, ok := d.ma.Push(s.AccessNum, s.MissNum)
	if !ok {
		return 0, nil
	}
	accE := d.accEW.Push(accAvg)
	missE := d.missEW.Push(missAvg)

	accLo, accHi := d.profile.AccessBounds(d.params.K)
	missLo, missHi := d.profile.MissBounds(d.params.K)

	accAlarm := d.accViol.observe(accE < accLo || accE > accHi)
	missAlarm := d.missViol.observe(missE < missLo || missE > missHi)

	return accAvg, []Decision{{Time: s.Time, Alarm: accAlarm || missAlarm}}
}

// EWMAValues returns the latest EWMA of each channel, for diagnostics and
// the Fig. 7 style detection-example plots.
func (d *SDSB) EWMAValues() (access, miss float64) {
	return d.accEW.Value(), d.missEW.Value()
}
