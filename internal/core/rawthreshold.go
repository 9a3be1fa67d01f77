package core

import (
	"fmt"

	"memdos/internal/pcm"
)

// RawThreshold is the naive detector Section IV-A argues against: alarm
// whenever a raw sample drops (or rises) by more than a relative threshold
// of the immediately preceding sample. It exists for the ablation study
// demonstrating why SDS smooths with MA+EWMA first — raw counter samples
// vary enough that direct thresholding false-alarms constantly.
type RawThreshold struct {
	// Threshold is the relative single-step change that triggers an
	// alarm (the paper's example uses 0.5).
	Threshold float64

	prev    float64
	hasPrev bool
}

// NewRawThreshold returns the naive detector.
func NewRawThreshold(threshold float64) (*RawThreshold, error) {
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("core: raw threshold %v outside (0,1)", threshold)
	}
	return &RawThreshold{Threshold: threshold}, nil
}

// Name returns "RawThreshold".
func (d *RawThreshold) Name() string { return "RawThreshold" }

// Push compares each sample with its predecessor.
func (d *RawThreshold) Push(s pcm.Sample) []Decision {
	if !d.hasPrev {
		d.prev = s.AccessNum
		d.hasPrev = true
		return nil
	}
	prev := d.prev
	d.prev = s.AccessNum
	if prev <= 0 {
		return []Decision{{Time: s.Time, Alarm: s.AccessNum > 0}}
	}
	rel := (s.AccessNum - prev) / prev
	alarm := rel < -d.Threshold || rel > d.Threshold
	return []Decision{{Time: s.Time, Alarm: alarm}}
}
