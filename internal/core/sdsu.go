package core

import (
	"fmt"

	"memdos/internal/pcm"
	"memdos/internal/stats"
)

// SDSU implements the extension sketched in the paper's future work
// (Section VIII): correlating resource utilization with the cache-related
// statistics to handle *dynamic* applications whose counter levels change
// too much for SDS/B's per-application profile.
//
// The scheme is profile-free. It monitors two self-normalizing channels:
//
//   - CPU efficiency (the fraction of CPU time making forward progress
//     rather than stalling on memory — observable by the hypervisor as
//     instructions-per-cycle / steal time). Workload phase changes move the
//     memory demand but keep efficiency high; both memory DoS attacks
//     depress it, because the victim's cycles drain into bus waits or
//     cache-miss stalls.
//   - The LLC miss ratio MissNum/AccessNum, which cleansing inflates
//     regardless of the application's current demand level.
//
// Both channels are smoothed exactly like SDS/B (MA then EWMA), calibrated
// online during a short assumed-safe warm-up, and alarmed after H_C
// consecutive violations.
type SDSU struct {
	params Params
	// util returns the victim's current CPU efficiency in [0, 1].
	util func() float64

	ma     stats.MAStream // CPU efficiency, miss ratio
	utilEW stats.EWMAStream
	missEW stats.EWMAStream

	// Online calibration over the first CalibWindows windows.
	calibWindows int
	utilCal      []float64
	missCal      []float64
	calibrated   bool
	utilFloor    float64
	missCeil     float64

	utilViol violationCounter
	missViol violationCounter
}

// SDSU calibration constants: the warm-up length in MA windows, and the
// violation margins relative to the calibrated levels.
const (
	sdsuCalibWindows = 60 // 30 s at the default DW*TPCM = 0.5 s/window
	sdsuUtilMargin   = 0.85
	sdsuMissMargin   = 2.0
)

// NewSDSU returns the utilization-correlated detector. util must return
// the protected VM's current CPU efficiency; it is sampled once per PCM
// sample.
func NewSDSU(util func() float64, p Params) (*SDSU, error) {
	if util == nil {
		return nil, fmt.Errorf("core: SDSU requires a utilization source")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &SDSU{
		params:       p,
		util:         util,
		ma:           stats.NewMAStream(p.W, p.DW),
		utilEW:       stats.NewEWMAStream(p.Alpha),
		missEW:       stats.NewEWMAStream(p.Alpha),
		calibWindows: sdsuCalibWindows,
		utilViol:     violationCounter{threshold: p.HC},
		missViol:     violationCounter{threshold: p.HC},
	}, nil
}

// Name returns "SDS/U".
func (d *SDSU) Name() string { return "SDS/U" }

// Push feeds one PCM sample; the utilization source is sampled alongside.
func (d *SDSU) Push(s pcm.Sample) []Decision {
	missRatio := 0.0
	if s.AccessNum > 0 {
		missRatio = s.MissNum / s.AccessNum
	}
	uAvg, mAvg, ok := d.ma.Push(d.util(), missRatio)
	if !ok {
		return nil
	}
	uE := d.utilEW.Push(uAvg)
	mE := d.missEW.Push(mAvg)

	if !d.calibrated {
		d.utilCal = append(d.utilCal, uE)
		d.missCal = append(d.missCal, mE)
		if len(d.utilCal) >= d.calibWindows {
			uMean, _ := stats.MeanStd(d.utilCal)
			mMean, mStd := stats.MeanStd(d.missCal)
			d.utilFloor = uMean * sdsuUtilMargin
			d.missCeil = mMean*sdsuMissMargin + d.params.K*mStd
			d.calibrated = true
		}
		return []Decision{{Time: s.Time, Alarm: false}}
	}

	utilAlarm := d.utilViol.observe(uE < d.utilFloor)
	missAlarm := d.missViol.observe(mE > d.missCeil)
	return []Decision{{Time: s.Time, Alarm: utilAlarm || missAlarm}}
}

// Calibrated reports whether the warm-up has completed; Thresholds returns
// the calibrated floor/ceiling (0,0 before calibration).
func (d *SDSU) Calibrated() bool { return d.calibrated }

// Thresholds returns the calibrated utilization floor and miss-ratio
// ceiling.
func (d *SDSU) Thresholds() (utilFloor, missCeil float64) {
	return d.utilFloor, d.missCeil
}
