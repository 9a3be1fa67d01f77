package core

// This file makes detector pipelines inspectable: every detector in the
// package implements Snapshotter, a flat numeric view of its mutable
// state. The streaming hub's per-session inspection endpoint serves it
// (stream/session.go); a session that reconnects gets a freshly built
// pipeline, so nothing here resets one.

// Snapshotter is implemented by detectors that can expose their mutable
// state as a flat name → value map. Booleans are encoded as 0/1 and
// enums as their integer value, keeping the map JSON-friendly.
type Snapshotter interface {
	StateSnapshot() map[string]float64
}

// SnapshotDetector returns d's state snapshot, or nil when d does not
// support Snapshotter.
func SnapshotDetector(d Detector) map[string]float64 {
	if s, ok := d.(Snapshotter); ok {
		return s.StateSnapshot()
	}
	return nil
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// StateSnapshot exposes SDS/B's smoothing state, profiled bounds and
// violation streaks.
func (d *SDSB) StateSnapshot() map[string]float64 {
	accLo, accHi := d.profile.AccessBounds(d.params.K)
	missLo, missHi := d.profile.MissBounds(d.params.K)
	return map[string]float64{
		"access_ewma":       d.accEW.Value(),
		"miss_ewma":         d.missEW.Value(),
		"access_lo":         accLo,
		"access_hi":         accHi,
		"miss_lo":           missLo,
		"miss_hi":           missHi,
		"access_violations": float64(d.accViol.count),
		"miss_violations":   float64(d.missViol.count),
	}
}

// StateSnapshot exposes SDS/P's period tracking state.
func (d *SDSP) StateSnapshot() map[string]float64 {
	return map[string]float64{
		"last_period":       d.lastPeriod,
		"normal_period":     d.profile.Period,
		"window_fill":       float64(len(d.maHistory)),
		"period_violations": float64(d.viol.count),
	}
}

// StateSnapshot merges the sub-schemes' snapshots under b_/p_ prefixes.
func (d *SDS) StateSnapshot() map[string]float64 {
	out := map[string]float64{
		"b_alarm": boolVal(d.bAlarm),
		"p_alarm": boolVal(d.pAlarm),
	}
	for k, v := range d.b.StateSnapshot() {
		out["b_"+k] = v
	}
	if d.p != nil {
		for k, v := range d.p.StateSnapshot() {
			out["p_"+k] = v
		}
	}
	return out
}

// StateSnapshot exposes SDS/U's calibration and violation state.
func (d *SDSU) StateSnapshot() map[string]float64 {
	return map[string]float64{
		"calibrated":      boolVal(d.calibrated),
		"util_floor":      d.utilFloor,
		"miss_ceiling":    d.missCeil,
		"util_ewma":       d.utilEW.Value(),
		"miss_ewma":       d.missEW.Value(),
		"util_violations": float64(d.utilViol.count),
		"miss_violations": float64(d.missViol.count),
	}
}

// StateSnapshot exposes the protocol phase and test streaks.
func (d *KSTestDetector) StateSnapshot() map[string]float64 {
	return map[string]float64{
		"phase":                  float64(d.phase),
		"alarm":                  boolVal(d.alarm),
		"consecutive_rejections": float64(d.viol.count),
		"consecutive_accepts":    float64(d.clear.count),
		"reference_samples":      float64(len(d.refAccess)),
		"monitored_samples":      float64(len(d.monAccess)),
	}
}

// StateSnapshot exposes the window fill (W from the first full window on)
// and latest classification.
func (d *DNNDetector) StateSnapshot() map[string]float64 {
	fill := d.params.W
	if d.ord[0] == 0 {
		fill = len(d.win) / 2
	}
	return map[string]float64{
		"window_fill":       float64(fill),
		"last_app":          float64(d.app[0]),
		"last_attack_class": float64(d.atk[0]),
		"violations":        float64(d.viol.count),
	}
}

// StateSnapshot exposes the reference sample.
func (d *RawThreshold) StateSnapshot() map[string]float64 {
	return map[string]float64{"prev": d.prev, "has_prev": boolVal(d.hasPrev)}
}
