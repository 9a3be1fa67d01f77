package core

import (
	"fmt"

	"memdos/internal/dnn"
	"memdos/internal/pcm"
)

// DNNDetector wraps a trained LSTM-FCN cascade (Section V) as a real-time
// detector: the raw two-channel sample stream is windowed exactly like
// SDS's input (window W, stride DW), each window is classified by the
// cascade, and H_D consecutive attack classifications raise the alarm.
//
// Unlike SDS, the detector needs no per-application profile: the cascade's
// first stage identifies the application and conditions the attack
// classifier. It scores the way the serving hub scores a session, through
// its own scorer and sliding carry (ScoreCarried), so the cascade is only
// read and detectors on other goroutines may share it.
type DNNDetector struct {
	params Params
	scorer *dnn.BatchScorer

	win   []float64 // the current window, up to [W][2] flat
	carry [1]*dnn.Carry
	ord   [1]uint64 // windows scored so far
	app   [1]int    // last verdicts; -1 before the first window
	atk   [1]int
	viol  violationCounter
}

// NewDNNDetector returns a detector around a trained cascade, compiled
// here for windows of p.W samples so a window the cascade cannot score
// is refused now, not at the first decision.
func NewDNNDetector(cascade *dnn.Cascade, p Params) (*DNNDetector, error) {
	if cascade == nil {
		return nil, fmt.Errorf("core: nil cascade")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	scorer, err := cascade.Scorer(p.W, dnn.ScorerOptions{})
	if err != nil {
		return nil, err
	}
	return &DNNDetector{
		params: p,
		scorer: scorer,
		win:    make([]float64, 0, 2*p.W),
		carry:  [1]*dnn.Carry{scorer.NewCarry(p.DW)},
		app:    [1]int{-1},
		atk:    [1]int{dnn.ClassNoAttack},
		viol:   violationCounter{threshold: p.HD},
	}, nil
}

// Name returns "DNN".
func (d *DNNDetector) Name() string { return "DNN" }

// Push feeds one PCM sample; a decision is produced every DW samples once
// a full window is available.
func (d *DNNDetector) Push(s pcm.Sample) []Decision {
	d.win = append(d.win, s.AccessNum, s.MissNum)
	if len(d.win) < 2*d.params.W {
		return nil
	}
	d.ord[0]++
	d.scorer.ScoreCarried(1, d.win, d.carry[:], d.ord[:], d.app[:], d.atk[:])
	// Slide: keep the window's tail for the next overlapping one.
	d.win = d.win[:copy(d.win, d.win[2*d.params.DW:])]
	alarm := d.viol.observe(d.atk[0] != dnn.ClassNoAttack)
	return []Decision{{Time: s.Time, Alarm: alarm}}
}
