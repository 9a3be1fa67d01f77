package metrics

// GC accounting for the serving path. The ingest work in this repo is
// judged bmgc-style — throughput plus GC pause totals — so the daemon
// exposes the runtime's collector counters.

import "runtime"

// GCStats is a point-in-time snapshot of the Go runtime's garbage
// collector accounting, the two numbers a bmgc-style benchmark report
// needs: cumulative stop-the-world pause time and completed cycles.
type GCStats struct {
	// PauseTotal is the cumulative stop-the-world pause time in seconds
	// since process start.
	PauseTotal float64
	// Cycles is the number of completed GC cycles since process start.
	Cycles uint64
}

// ReadGCStats snapshots the runtime's GC counters.
func ReadGCStats() GCStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return GCStats{
		PauseTotal: float64(ms.PauseTotalNs) / 1e9,
		Cycles:     uint64(ms.NumGC),
	}
}

// RegisterRuntimeGC exposes the runtime's GC counters on r:
//
//	memdos_gc_pause_seconds_total  cumulative stop-the-world pause time
//	memdos_gc_cycles_total         completed GC cycles
//
// Both are sampled at exposition time via runtime.ReadMemStats; one
// read covers both families, but the registry collects them
// independently and a scrape is rare enough that two reads do not
// matter.
func RegisterRuntimeGC(r *Registry) {
	r.RegisterCounterFunc("memdos_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time in seconds.",
		func() []Point {
			return []Point{{Value: ReadGCStats().PauseTotal}}
		})
	r.RegisterCounterFunc("memdos_gc_cycles_total",
		"Completed GC cycles since process start.",
		func() []Point {
			return []Point{{Value: float64(ReadGCStats().Cycles)}}
		})
}
