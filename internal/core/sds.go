package core

import (
	"memdos/internal/pcm"
)

// SDS is the combined scheme the paper implements as its prototype
// (Section IV-C): SDS/B alone for non-periodic applications; for periodic
// applications SDS/B and SDS/P run together and the alarm requires both to
// agree, which eliminates false positives either scheme raises alone (the
// paper reports a 3-6% specificity improvement over the individual
// schemes).
type SDS struct {
	b SDSB
	p *SDSP // nil for non-periodic applications

	bAlarm, pAlarm bool
}

// NewSDS builds the combined detector from an application profile: SDS/P is
// engaged only when the profile is periodic.
func NewSDS(profile Profile, params Params) (*SDS, error) {
	b, err := newSDSB(profile, params)
	if err != nil {
		return nil, err
	}
	s := &SDS{b: b}
	if profile.Periodic {
		p, err := NewSDSP(profile, params)
		if err != nil {
			return nil, err
		}
		s.p = p
	}
	return s, nil
}

// Name returns "SDS".
func (d *SDS) Name() string { return "SDS" }

// Periodic reports whether SDS/P is engaged.
func (d *SDS) Periodic() bool { return d.p != nil }

// Push feeds one PCM sample to both sub-schemes. Decisions follow SDS/B's
// cadence (every DW samples); for periodic applications a decision's alarm
// state is the conjunction of SDS/B's and SDS/P's current states. The two
// share the MA pipeline: SDS/P is entered past its own MA stage (whose
// running sums, allocated by its first Push, therefore never exist) with
// SDS/B's AccessNum average.
func (d *SDS) Push(s pcm.Sample) []Decision {
	accAvg, bd := d.b.step(s)
	if len(bd) == 0 {
		return nil
	}
	d.bAlarm = bd[0].Alarm
	if d.p == nil {
		return bd
	}
	if alarm, ok := d.p.pushMA(accAvg); ok {
		d.pAlarm = alarm
	}
	bd[0].Alarm = d.bAlarm && d.pAlarm
	return bd
}
