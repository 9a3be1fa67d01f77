package core

import (
	"fmt"

	"memdos/internal/pcm"
	"memdos/internal/stats"
)

// KSParams are the protocol parameters of the KStest baseline (Zhang et
// al., AsiaCCS'17), with the defaults the paper reuses in Section III-B.
type KSParams struct {
	// WR is the reference-collection window (seconds) during which all
	// other VMs are throttled.
	WR float64
	// WM is the monitored-sample window (seconds).
	WM float64
	// LM is the monitoring interval (seconds) between KS tests.
	LM float64
	// LR is the reference-refresh interval (seconds).
	LR float64
	// Alpha is the KS significance level.
	Alpha float64
	// Consecutive is how many consecutive rejections declare an attack
	// (4 in the original scheme).
	Consecutive int
	// ClearConsecutive is how many consecutive accepting tests withdraw
	// a declared attack (anti-flapping hysteresis).
	ClearConsecutive int
}

// DefaultKSParams returns the parameter set the paper's Section III-B uses
// to measure the scheme's false positives: W_R = W_M = 1 s, L_M = 2 s,
// L_R = 30 s, 4 consecutive rejections, and an alarm that withdraws on the
// first accepting test (no hysteresis).
func DefaultKSParams() KSParams {
	return KSParams{WR: 1, WM: 1, LM: 2, LR: 30, Alpha: 0.05, Consecutive: 4, ClearConsecutive: 1}
}

// EvaluationKSParams returns the cadence used for the Section VI detector
// comparison: the Section III-B protocol with monitoring rounds every 5 s.
// The paper notes the scheme's throttled reference collection "cannot be
// too frequent as it delays the execution of all applications, which
// indirectly increases the detection delay"; with L_M = 5 s the scheme's
// Fig. 13/14 envelope emerges: 4 consecutive rejections take at least
// 20 s, a rejection streak broken by a reference refresh slips detection
// into the next 30 s cycle (up to ~50 s), and throttling costs
// 1 s per 30 s (~3.3% before the tests' own CPU cost, within the paper's
// 3-8% overhead band).
func EvaluationKSParams() KSParams {
	return KSParams{WR: 1, WM: 1, LM: 5, LR: 30, Alpha: 0.05, Consecutive: 4, ClearConsecutive: 2}
}

// Validate reports whether the parameters are usable.
func (p KSParams) Validate() error {
	switch {
	case p.WR <= 0 || p.WM <= 0:
		return fmt.Errorf("core: KS windows must be positive (WR=%v WM=%v)", p.WR, p.WM)
	case p.LM < p.WM:
		return fmt.Errorf("core: KS monitoring interval LM=%v shorter than WM=%v", p.LM, p.WM)
	case p.LR < p.WR+p.LM:
		return fmt.Errorf("core: KS refresh interval LR=%v too short", p.LR)
	case p.Alpha <= 0 || p.Alpha >= 1:
		return fmt.Errorf("core: KS alpha %v outside (0,1)", p.Alpha)
	case p.Consecutive <= 0:
		return fmt.Errorf("core: KS consecutive threshold %d must be positive", p.Consecutive)
	case p.ClearConsecutive <= 0:
		return fmt.Errorf("core: KS clear threshold %d must be positive", p.ClearConsecutive)
	}
	return nil
}

// Throttle is the hypervisor hook the KStest scheme needs: pause every VM
// except the protected one for dur seconds so reference samples are
// attack-free. It is the source of the scheme's performance overhead.
type Throttle func(dur float64)

// ksPhase is the protocol state.
type ksPhase int

const (
	ksCollectReference ksPhase = iota
	ksIdle
	ksCollectMonitored
)

// KSTestDetector reimplements the baseline detection scheme: periodically
// refresh attack-free reference samples under execution throttling, then
// every L_M seconds collect monitored samples and run a two-sample
// Kolmogorov-Smirnov test per counter channel; Consecutive successive
// rejections on either channel raise the alarm.
type KSTestDetector struct {
	params   KSParams
	throttle Throttle

	phase      ksPhase
	phaseStart float64
	cycleStart float64
	nextTest   float64
	started    bool

	refAccess, refMiss []float64
	monAccess, monMiss []float64

	viol violationCounter
	// clear counts consecutive accepting tests while the alarm is up.
	clear violationCounter
	// alarm latches between tests so per-instant evaluation sees the
	// current belief at every monitoring round.
	alarm bool
}

// NewKSTestDetector returns the baseline detector. throttle may be nil (the
// protocol still runs, but reference samples are then whatever arrives —
// useful for unit tests; experiments always wire the hypervisor hook).
func NewKSTestDetector(params KSParams, throttle Throttle) (*KSTestDetector, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &KSTestDetector{
		params:   params,
		throttle: throttle,
		viol:     violationCounter{threshold: params.Consecutive},
		clear:    violationCounter{threshold: params.ClearConsecutive},
	}, nil
}

// Name returns "KStest".
func (d *KSTestDetector) Name() string { return "KStest" }

// Push feeds one PCM sample of the protected VM and advances the protocol
// state machine on the sample's timestamp.
func (d *KSTestDetector) Push(s pcm.Sample) []Decision {
	if !d.started {
		d.started = true
		d.beginReference(s.Time)
	}
	// A reference refresh starts as soon as the cycle elapses, but never
	// interrupts an in-flight monitored window (the round's test would be
	// lost).
	if s.Time >= d.cycleStart+d.params.LR && d.phase == ksIdle {
		d.beginReference(s.Time)
	}

	switch d.phase {
	case ksCollectReference:
		d.refAccess = append(d.refAccess, s.AccessNum)
		d.refMiss = append(d.refMiss, s.MissNum)
		if s.Time >= d.phaseStart+d.params.WR {
			d.phase = ksIdle
			d.nextTest = d.phaseStart + d.params.LM
		}
		return nil
	case ksIdle:
		if s.Time >= d.nextTest {
			d.phase = ksCollectMonitored
			d.phaseStart = s.Time
			d.monAccess = d.monAccess[:0]
			d.monMiss = d.monMiss[:0]
		}
		return nil
	case ksCollectMonitored:
		d.monAccess = append(d.monAccess, s.AccessNum)
		d.monMiss = append(d.monMiss, s.MissNum)
		if s.Time < d.phaseStart+d.params.WM {
			return nil
		}
		d.phase = ksIdle
		d.nextTest += d.params.LM
		reject := d.compare()
		if d.viol.observe(reject) {
			d.alarm = true
		}
		// Symmetric hysteresis: a declared attack is withdrawn only
		// after ClearConsecutive accepting tests, so the belief does not
		// flap on single borderline tests. The alarm also latches across
		// reference refreshes (which reset both streaks).
		if d.clear.observe(!reject) {
			d.alarm = false
		}
		return []Decision{{Time: s.Time, Alarm: d.alarm}}
	}
	return nil
}

// beginReference starts a reference-collection window at time now,
// throttling the co-located VMs for W_R seconds.
func (d *KSTestDetector) beginReference(now float64) {
	d.phase = ksCollectReference
	d.phaseStart = now
	d.cycleStart = now
	d.refAccess = d.refAccess[:0]
	d.refMiss = d.refMiss[:0]
	// A fresh reference starts a fresh comparison series: streaks
	// against the old reference do not carry over. (The alarm itself
	// stays latched until enough tests accept again.)
	d.viol.count = 0
	d.clear.count = 0
	if d.throttle != nil {
		d.throttle(d.params.WR)
	}
}

// compare runs the two-sample KS test on both channels and reports whether
// either rejects.
func (d *KSTestDetector) compare() bool {
	if len(d.refAccess) == 0 || len(d.monAccess) == 0 {
		return false
	}
	accRes, err := stats.KSTest(d.refAccess, d.monAccess, d.params.Alpha)
	if err != nil {
		return false
	}
	missRes, err := stats.KSTest(d.refMiss, d.monMiss, d.params.Alpha)
	if err != nil {
		return false
	}
	return accRes.Reject || missRes.Reject
}

// ConsecutiveRejections reports the current consecutive-rejection count,
// for Fig. 1 style diagnostics.
func (d *KSTestDetector) ConsecutiveRejections() int { return d.viol.count }
