package pcm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// sampleJSON is the wire form of a Sample. Pointer fields distinguish a
// missing key from an explicit zero, so ingestion can reject partial
// samples instead of silently defaulting counters to 0. The DRAM fields
// bw/lat arrived after the 3-field format shipped and are therefore
// optional on decode (absent = 0), keeping old producers valid.
type sampleJSON struct {
	Time       *float64 `json:"t"`
	AccessNum  *float64 `json:"access"`
	MissNum    *float64 `json:"miss"`
	BWBytes    *float64 `json:"bw,omitempty"`
	AvgLatency *float64 `json:"lat,omitempty"`
}

// Validate reports whether the sample is a usable counter observation:
// every field finite and every counter non-negative. Detectors assume
// these invariants (NaN would poison every EWMA downstream), so network
// ingestion paths must call this before Push. The accept test is
// wellFormed; the switch below only words the refusal.
func (s Sample) Validate() error {
	if s.wellFormed() {
		return nil
	}
	switch {
	case math.IsNaN(s.Time) || math.IsInf(s.Time, 0):
		return fmt.Errorf("pcm: non-finite sample time %v", s.Time)
	case math.IsNaN(s.AccessNum) || math.IsInf(s.AccessNum, 0):
		return fmt.Errorf("pcm: non-finite AccessNum %v", s.AccessNum)
	case math.IsNaN(s.MissNum) || math.IsInf(s.MissNum, 0):
		return fmt.Errorf("pcm: non-finite MissNum %v", s.MissNum)
	case s.AccessNum < 0 || s.MissNum < 0:
		return fmt.Errorf("pcm: negative counters %v/%v", s.AccessNum, s.MissNum)
	case math.IsNaN(s.BWBytes) || math.IsInf(s.BWBytes, 0):
		return fmt.Errorf("pcm: non-finite BWBytes %v", s.BWBytes)
	case math.IsNaN(s.AvgLatency) || math.IsInf(s.AvgLatency, 0):
		return fmt.Errorf("pcm: non-finite AvgLatency %v", s.AvgLatency)
	}
	return fmt.Errorf("pcm: negative DRAM counters %v/%v", s.BWBytes, s.AvgLatency)
}

// wellFormed is Validate's accept test in one fused expression: a
// comparison with NaN is false and ±Inf lies outside [-MaxFloat64,
// MaxFloat64], so each field costs two compares and no call. It is
// small enough to inline into the frame codec's per-sample loops.
func (s *Sample) wellFormed() bool {
	return math.Abs(s.Time) <= math.MaxFloat64 &&
		s.AccessNum >= 0 && s.AccessNum <= math.MaxFloat64 &&
		s.MissNum >= 0 && s.MissNum <= math.MaxFloat64 &&
		s.BWBytes >= 0 && s.BWBytes <= math.MaxFloat64 &&
		s.AvgLatency >= 0 && s.AvgLatency <= math.MaxFloat64
}

// MarshalJSON encodes the sample as {"t":..,"access":..,"miss":..} plus
// "bw"/"lat" when either DRAM field is non-zero (zero-valued DRAM fields
// are elided so memory-model-free producers keep emitting the original
// 3-field form byte for byte). A sample that fails Validate (NaN/Inf
// values) refuses to encode.
func (s Sample) MarshalJSON() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := sampleJSON{Time: &s.Time, AccessNum: &s.AccessNum, MissNum: &s.MissNum}
	if s.BWBytes != 0 || s.AvgLatency != 0 { // zero elides the optional wire fields
		w.BWBytes, w.AvgLatency = &s.BWBytes, &s.AvgLatency
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes and validates a sample. All three fields are
// required, unknown fields are rejected, and the decoded sample must pass
// Validate — a malformed or hostile payload yields an error, never a
// detector-poisoning sample.
func (s *Sample) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w sampleJSON
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("pcm: bad sample: %w", err)
	}
	if w.Time == nil || w.AccessNum == nil || w.MissNum == nil {
		return fmt.Errorf("pcm: sample missing required field (t/access/miss)")
	}
	out := Sample{Time: *w.Time, AccessNum: *w.AccessNum, MissNum: *w.MissNum}
	if w.BWBytes != nil {
		out.BWBytes = *w.BWBytes
	}
	if w.AvgLatency != nil {
		out.AvgLatency = *w.AvgLatency
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*s = out
	return nil
}
