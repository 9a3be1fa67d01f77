package core

import "fmt"

// Incident is one contiguous alarm episode reconstructed from a decision
// time-line: the operational unit a cloud provider acts on (ticket, VM
// migration, tenant notification).
type Incident struct {
	// Start is the first alarming decision's timestamp; End the first
	// non-alarming decision after it (or the final decision time for a
	// still-open incident).
	Start, End float64
	// Open reports an incident still alarming at the end of the stream.
	Open bool
}

// Duration returns the incident length in seconds.
func (in Incident) Duration() float64 { return in.End - in.Start }

// String formats the incident compactly.
func (in Incident) String() string {
	state := "closed"
	if in.Open {
		state = "open"
	}
	return fmt.Sprintf("[%.1f, %.1f) %s", in.Start, in.End, state)
}

// IncidentFold folds decisions into alarm episodes one at a time. It is
// the single implementation of the fold and the one place an alarm edge
// comes from: Incidents loops over it for a recorded time-line, a live
// stream session, the closed-loop study and the cluster's victim watches
// observe decisions as their detectors emit them and act on the edges it
// reports. The zero value is an empty fold with the alarm down.
type IncidentFold struct {
	incidents []Incident
	started   bool
	last      Decision
}

// Observe folds one decision in. ok reports whether it was in order: a
// decision dated before its predecessor (a producer replaying history) is
// skipped — the fold is unchanged — so a live session survives it. edge
// reports an in-order decision whose Alarm differs from the alarm state
// before it: a raise when d.Alarm is set, a clear otherwise.
func (f *IncidentFold) Observe(d Decision) (ok, edge bool) {
	if f.started && d.Time < f.last.Time {
		return false, false
	}
	if f.last.Alarm {
		// The open episode (the last one) continues or ends here.
		in := &f.incidents[len(f.incidents)-1]
		in.End, in.Open = d.Time, d.Alarm
	} else if d.Alarm {
		f.incidents = append(f.incidents, Incident{Start: d.Time, End: d.Time, Open: true})
	}
	edge = d.Alarm != f.last.Alarm
	f.started, f.last = true, d
	return true, edge
}

// Active reports whether the alarm is up: the last in-order decision
// alarmed.
func (f *IncidentFold) Active() bool { return f.last.Alarm }

// Raised returns how many times the alarm went up: the episodes folded so
// far, before any merging.
func (f *IncidentFold) Raised() int { return len(f.incidents) }

// Last returns the last in-order decision, false before the first.
func (f *IncidentFold) Last() (Decision, bool) { return f.last, f.started }

// Merged returns a copy of the episodes folded so far, with flaps of at
// most maxGap seconds joined (see MergeIncidents).
func (f *IncidentFold) Merged(maxGap float64) []Incident {
	return MergeIncidents(f.incidents, maxGap)
}

// Incidents folds a decision time-line into alarm episodes. Decisions must
// be in chronological order (as every detector in this package emits
// them); out-of-order input returns an error.
func Incidents(decisions []Decision) ([]Incident, error) {
	var f IncidentFold
	for _, d := range decisions {
		if ok, _ := f.Observe(d); !ok {
			return nil, fmt.Errorf("core: decisions out of order at t=%v", d.Time)
		}
	}
	return f.incidents, nil
}

// MergeIncidents joins incidents separated by gaps of at most maxGap
// seconds — useful when a detector's alarm flaps briefly mid-attack and
// the operator wants one ticket, not three.
func MergeIncidents(incidents []Incident, maxGap float64) []Incident {
	if len(incidents) == 0 {
		return nil
	}
	out := []Incident{incidents[0]}
	for _, in := range incidents[1:] {
		lastIdx := len(out) - 1
		if in.Start-out[lastIdx].End <= maxGap {
			out[lastIdx].End = in.End
			out[lastIdx].Open = in.Open
			continue
		}
		out = append(out, in)
	}
	return out
}
