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
// classifier.
type DNNDetector struct {
	cascade *dnn.Cascade
	params  Params

	buf       [][]float64
	sinceEval int
	viol      violationCounter

	lastApp    int
	lastAttack int
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
	if err := cascade.Compile(p.W); err != nil {
		return nil, err
	}
	return &DNNDetector{
		cascade:    cascade,
		params:     p,
		viol:       violationCounter{threshold: p.HD},
		lastApp:    -1,
		lastAttack: dnn.ClassNoAttack,
	}, nil
}

// Name returns "DNN".
func (d *DNNDetector) Name() string { return "DNN" }

// Overhead returns the modelled CPU cost of per-window inference (Fig. 14:
// DNN costs 2-5%, above SDS's simple arithmetic).
func (d *DNNDetector) Overhead() float64 { return OverheadDNN }

// Push feeds one PCM sample; a decision is produced every DW samples once
// a full window is available.
func (d *DNNDetector) Push(s pcm.Sample) []Decision {
	if len(d.buf) < d.params.W {
		d.buf = append(d.buf, []float64{s.AccessNum, s.MissNum})
	} else {
		// Slide in place, as stats.MAStream.Push does, and refill the
		// evicted row: re-slicing past it would walk the slice off its
		// array, and a fresh row per sample is an allocation per sample.
		row := d.buf[0]
		copy(d.buf, d.buf[1:])
		row[0], row[1] = s.AccessNum, s.MissNum
		d.buf[len(d.buf)-1] = row
	}
	d.sinceEval++
	if len(d.buf) < d.params.W || d.sinceEval < d.params.DW {
		return nil
	}
	d.sinceEval = 0
	app, attackClass := d.cascade.Classify(d.buf)
	d.lastApp, d.lastAttack = app, attackClass
	alarm := d.viol.observe(attackClass != dnn.ClassNoAttack)
	return []Decision{{Time: s.Time, Alarm: alarm}}
}
