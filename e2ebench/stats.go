package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method) —
// the rule the acceptance check applies to run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := median(xs)
		return v, v, v
	}
	sort.Float64s(xs)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// rusageCPU is user+system CPU time as getrusage reports it for who.
func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is the runtime accounting read at window boundaries.
type rtSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
	pauseNs uint64
	heapSys uint64
}

func readRT() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		at: time.Now(), cpu: processCPU(),
		mallocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs,
		heapSys: ms.HeapSys,
	}
}

// rtMetrics fills the rt.* per-layer metrics from two snapshots around a
// window that completed `work` units.
func rtMetrics(m map[string]float64, before, after rtSnap, work float64) {
	wall := after.at.Sub(before.at).Seconds()
	if wall <= 0 || work <= 0 {
		return
	}
	m["rt.allocs_per_work"] = float64(after.mallocs-before.mallocs) / work
	m["rt.gc_cycles_per_s"] = float64(after.numGC-before.numGC) / wall
	m["rt.gc_pause_ms_per_s"] = float64(after.pauseNs-before.pauseNs) / 1e6 / wall
	m["rt.heap_peak_mb"] = float64(after.heapSys) / (1 << 20)
}

// segment is one measured slice of a run: fixed work, its wall and CPU
// cost.
type segment struct {
	wall time.Duration
	cpu  time.Duration
	work float64
}

// segmentClock decides how many fixed-work segments a closed loop runs:
// until the budget is spent, but at least lo measured segments and at
// most hi. A zero budget runs exactly hi (the tests' sizes), so that two
// runs of one seed do the same work.
type segmentClock struct {
	start  time.Time
	budget time.Duration
	lo, hi int
}

func newSegmentClock(budget time.Duration, hi int) segmentClock {
	return segmentClock{start: time.Now(), budget: budget, lo: min(minSegments, hi), hi: hi}
}

// more reports whether another segment runs after `measured` measured
// ones (the warm-up segment not counted).
func (c segmentClock) more(measured int) bool {
	if measured >= c.hi {
		return false
	}
	return c.budget == 0 || measured < c.lo || time.Since(c.start) < c.budget
}

// The quiet level of a run. A run's value for a timed metric is not the
// median of its segments but the median of the quieter half of them: the
// lower quartile of a cost or a latency, the upper quartile of a rate.
// Whatever else runs on the host only ever adds to a time, in episodes of
// seconds, so the quieter half of a run is the half that measured the
// program; the plain median moves with how much of the run the episodes
// covered. (The extremes would follow a single lucky segment.)

// quietCost is the quiet level of per-segment costs or latencies.
func quietCost(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.25) }

// quietRate is the quiet level of per-segment rates.
func quietRate(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.75) }

// segmentLevels reduces measured segments to the two end-to-end rates:
// work per wall second and CPU microseconds per unit.
func segmentLevels(segs []segment) (workPerS, cpuUsPerWork float64) {
	rate, cost := segmentSeries(segs)
	return quietRate(rate), quietCost(cost)
}

// segmentSeries is every segment's rate and cost, in run order.
func segmentSeries(segs []segment) (rate, cost []float64) {
	for _, s := range segs {
		if s.work <= 0 || s.wall <= 0 {
			continue
		}
		rate = append(rate, s.work/s.wall.Seconds())
		cost = append(cost, float64(s.cpu.Nanoseconds())/1e3/s.work)
	}
	return rate, cost
}

// tailMetrics fills the e2e.verdict_* tail metrics from verdict
// latencies in milliseconds. Tails are reported, not gated: on a shared
// box they follow the host's stalls, not the code.
func tailMetrics(m map[string]float64, verdictMs []float64) {
	m["e2e.verdict_p90_ms"] = quantile(verdictMs, 0.90)
	m["e2e.verdict_p99_ms"] = quantile(verdictMs, 0.99)
	m["e2e.verdict_max_ms"] = quantile(verdictMs, 1)
}

// blockLog collects the measured segments of a closed loop. A closed loop
// has no per-event clock, so its latency metrics are block latencies:
// verdict is the wall time of one fixed block of work, from its first
// input until every verdict of the block exists; action adds reading the
// results back through the call the user acts on.
type blockLog struct {
	segs             []segment
	verdictMs, actMs []float64
}

func (b *blockLog) measured() int { return len(b.segs) }

// add records one measured block: before and after bracket the work, read
// is when the results had been read back.
func (b *blockLog) add(before, after rtSnap, read time.Time, work float64) {
	b.segs = append(b.segs, segment{wall: after.at.Sub(before.at), cpu: after.cpu - before.cpu, work: work})
	b.verdictMs = append(b.verdictMs, after.at.Sub(before.at).Seconds()*1e3)
	b.actMs = append(b.actMs, read.Sub(before.at).Seconds()*1e3)
}

// report fills the run's end-to-end metrics (setup_s aside) and tails.
func (b *blockLog) report(res *result) {
	res.e2e["work_per_s"], res.e2e["cpu_us_per_work"] = segmentLevels(b.segs)
	res.e2e["verdict_p50_ms"] = quietCost(b.verdictMs)
	res.e2e["action_p50_ms"] = quietCost(b.actMs)
	res.series["verdict_ms"] = append([]float64(nil), b.verdictMs...)
	res.series["work_per_s"], res.series["cpu_us_per_work"] = segmentSeries(b.segs)
	tailMetrics(res.layer, b.verdictMs)
}
