package core

import (
	"memdos/internal/metrics"
	"memdos/internal/pcm"
)

// Decision re-exports metrics.Decision: one dated alarm verdict.
type Decision = metrics.Decision

// Detector is a real-time memory-DoS detection scheme. Implementations
// consume the protected VM's PCM sample stream one sample at a time and
// emit decisions at their own cadence (every DW samples for SDS/B, every
// DWP MA values for SDS/P, every monitoring round for KStest).
type Detector interface {
	// Name identifies the scheme ("SDS/B", "SDS/P", "SDS", "KStest",
	// "DNN").
	Name() string
	// Push feeds one PCM sample and returns any decisions produced.
	Push(s pcm.Sample) []Decision
	// Overhead returns the hypervisor CPU fraction the scheme's
	// processing consumes (the paper's Fig. 14 cost model); execution
	// throttling costs are modelled physically by the hypervisor, not
	// here.
	Overhead() float64
}

// The Fig. 14 cost model: the hypervisor CPU fraction each scheme's
// processing is charged, returned by the detectors' Overhead methods and
// applied by experiments.Fig14Overhead.
const (
	// OverheadSDS is below the sum of its parts: SDS/B and SDS/P share
	// the MA pipeline.
	OverheadSDS  = 0.018
	OverheadSDSB = 0.012
	// OverheadSDSP is slightly above SDS/B's: the DFT-ACF recomputation
	// is the scheme's dominant cost.
	OverheadSDSP = 0.015
	// OverheadDNN is per-window inference (the paper reports 2-5%).
	OverheadDNN = 0.035
	// OverheadKSTest covers the repeated KS tests only; the scheme's
	// dominant cost, execution throttling, is inflicted physically.
	OverheadKSTest = 0.02
)

// violationCounter tracks consecutive anomaly observations against a
// threshold, the alarm primitive shared by every scheme in the paper
// (H_C, H_P, H_D consecutive anomalies trigger and sustain the alarm).
type violationCounter struct {
	threshold int
	count     int
}

// observe folds one observation in and reports whether the alarm is
// currently raised.
func (v *violationCounter) observe(anomalous bool) bool {
	if anomalous {
		if v.count < v.threshold {
			v.count++
		}
	} else {
		v.count = 0
	}
	return v.count >= v.threshold
}
