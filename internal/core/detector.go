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
}

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
