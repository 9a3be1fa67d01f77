package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memdos/internal/pcm"
	"memdos/internal/stream"
)

// fleet_paced: the operator's shape. Many sessions, small frames, an
// open loop at a fixed rate far below saturation, so per-frame costs set
// both the sample->verdict latency and the per-VM monitoring cost.

// fleetSize fixes the workload. The rate is sessions*frameSamples/tick.
type fleetSize struct {
	sessions     int
	phases       int
	conns        int
	frameSamples int           // samples per session per tick
	tick         time.Duration // generator period
	segTicks     int           // ticks per segment
	segments     int           // measured segments; one more is run first and discarded
}

// fleetSizeFor returns the calibrated size: 512 sessions x 10 samples
// every 20 ms = 256 k samples/s, five times real time, in half-second
// segments spanning `seconds`. Every session of a family replays the
// cycle at its own phase, so alarm transitions spread over the whole run.
func fleetSizeFor(seconds int) fleetSize {
	fs := fleetSize{sessions: 512, phases: 256, conns: 2, frameSamples: 10,
		tick: 20 * time.Millisecond, segments: seconds * segmentsPerSecond}
	fs.segTicks = int(time.Second / fs.tick / segmentsPerSecond)
	return fs
}

// spinLead is how long before a tick's due time the generator stops
// sleeping and starts spinning: longer than a timer wake-up on the
// reference box is late (p99 about 2 ms).
const spinLead = 3 * time.Millisecond

// minSegmentEvents is how many timed events a segment needs for its
// median latency to count. A session's first alarm takes HC = 30
// decisions, 3 s of the run, so the first segments have none.
const minSegmentEvents = 5

// decisionStride is the detectors' decision cadence in ticks: SDS
// decides every DW = 50 samples, five 10-sample ticks.
const decisionStride = 5

// prefix is how many extra samples the session's first frame carries.
// VMs do not start in lockstep: without the prefix every session would
// complete its moving-average window on the same tick, and latency would
// be measured only on ticks where all 512 detectors decide at once. The
// prefix spreads decision ticks evenly over the cadence.
func (fs fleetSize) prefix(ss sessionSpec) int {
	return (ss.idx / 2 % decisionStride) * fs.frameSamples
}

// frame returns the sample range [lo, lo+n) tick k carries for ss.
func (fs fleetSize) frame(ss sessionSpec, k int) (lo, n int) {
	if k == 0 {
		return 0, fs.frameSamples + fs.prefix(ss)
	}
	return fs.prefix(ss) + k*fs.frameSamples, fs.frameSamples
}

// totalTicks counts the warm-up segment and the measured ones.
func (fs fleetSize) totalTicks() int { return fs.segTicks * (fs.segments + 1) }

// perSession is how many samples the session is sent over the whole run.
func (fs fleetSize) perSession(ss sessionSpec) int {
	return fs.prefix(ss) + fs.totalTicks()*fs.frameSamples
}

// tickOf is the tick whose frame carried the session's n-th sample.
func (fs fleetSize) tickOf(ss sessionSpec, n int) int {
	return max(0, (n-fs.prefix(ss))/fs.frameSamples)
}

// fleetServingSpec is the hub configuration of fleet_paced. ShardBuffer
// is raised from the default 256: one tick's burst is 256 batches per
// shard on two shards, exactly the default capacity, so any host stall
// sheds samples (documented in the README, not hidden).
func fleetServingSpec(fs fleetSize) servingSpec {
	return servingSpec{sessions: fs.sessions, phases: fs.phases, conns: fs.conns,
		policy: stream.DropNewest, queueCap: 4096, shardBuffer: 8192, respond: true, listen: true}
}

func runFleetPaced(in *inputs, fs fleetSize, builds int, rec *recorder) (*result, error) {
	res := newResult()
	spec := fleetServingSpec(fs)
	build := func() (*servingSys, error) { return buildServing(in, spec) }
	sys, err := timedBuilds(res, builds, build, (*servingSys).close)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	stopEvents := sys.collectEvents()

	totalTicks := fs.totalTicks()
	perConn := fs.sessions / fs.conns
	var (
		lateness []float64
		genErr   error
		spun     atomic.Int64 // nanoseconds of CPU the pacer has spent spinning
	)

	runtimeSettle()
	start := time.Now().Add(50 * time.Millisecond)
	due := func(k int) time.Time { return start.Add(time.Duration(k) * fs.tick) }

	// One generator paces every connection, so that the load comes from
	// one thread however many connections carry it. A tick's chunks are
	// encoded half a tick ahead, when the previous burst has been served:
	// "due" is when the frames are due on the wire, and the generator's
	// own encoding does not compete with the system for the two cores
	// while a burst is in flight. The generator sleeps to within spinLead
	// of the due time and spins the rest, because a timer wake-up on the
	// reference box is 0.5-1.4 ms late and as unsteady as the host, which
	// would make a third of the measured latency the harness's own.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		samples := make([]pcm.Sample, (decisionStride+1)*fs.frameSamples)
		chunks := make([][]byte, fs.conns)
		lateness = make([]float64, 0, totalTicks)
		for k := 0; k < totalTicks; k++ {
			if k > 0 {
				time.Sleep(time.Until(due(k).Add(-fs.tick / 2)))
			}
			encodeStart := time.Now()
			for c, conn := range sys.conns {
				chunk := conn.begin()
				for _, ss := range sys.sessions[c*perConn : (c+1)*perConn] {
					lo, n := fs.frame(ss, k)
					in.fill(samples[:n], ss, lo)
					var err error
					if chunk, err = pcm.AppendBatch(chunk, ss.id, samples[:n]); err != nil {
						genErr = err
						return
					}
				}
				chunks[c] = chunk
			}
			encoded := time.Now()
			time.Sleep(time.Until(due(k).Add(-spinLead)))
			spinCPU := threadCPU()
			woke := time.Now()
			for woke.Before(due(k)) {
				woke = time.Now()
			}
			spun.Add(int64(threadCPU() - spinCPU))
			lateness = append(lateness, woke.Sub(due(k)).Seconds()*1e3)
			for c, conn := range sys.conns {
				if err := conn.send(chunks[c]); err != nil {
					genErr = err
					return
				}
			}
			if rec != nil {
				written := time.Now()
				tick := rec.add("gen.tick", 0, encodeStart, written)
				rec.add("pcm.encode", tick, encodeStart, encoded)
				rec.add("conn.write", tick, woke, written)
			}
		}
	}()

	// Segment boundaries fall a quarter tick before a tick's due time,
	// when the previous burst has long been served and the next is
	// encoded: the coordinator wakes at each one and reads the process
	// CPU clock, the runtime's counters (which stops the world) and the
	// hub's.
	type boundary struct {
		rt    rtSnap
		stats stream.HubStats
	}
	bounds := make([]boundary, 0, fs.segments+2)
	var depthMax int64
	for seg := 0; seg <= fs.segments+1; seg++ {
		time.Sleep(time.Until(due(seg * fs.segTicks).Add(-fs.tick / 4)))
		b := boundary{rt: readRT(), stats: sys.hub.Stats()}
		// The pacing spin is the harness's, not the system's or the
		// generator's work: it does not count as CPU spent on samples.
		b.rt.cpu -= time.Duration(spun.Load())
		depthMax = max(depthMax, b.stats.QueueDepth)
		bounds = append(bounds, b)
		rec.count("hub", hubCounters(b.stats))
	}
	wg.Wait()
	if genErr != nil {
		return nil, fmt.Errorf("generator: %w", genErr)
	}

	accepted, refused, respErrs, err := sys.finishStreams()
	if err != nil {
		return nil, err
	}
	if err := sys.hub.Drain(); err != nil {
		return nil, err
	}
	final := sys.hub.Stats()
	got := stopEvents()
	// The pump must drain its buffered events before actions are matched.
	sys.stopPump()
	sys.stopPump = nil

	sent := 0
	for _, ss := range sys.sessions {
		sent += fs.perSession(ss)
	}
	if err := checkSamples(final, accepted, refused, sent); err != nil {
		return nil, err
	}
	expected, bad, err := sys.checkEvents(got, fs.perSession)
	if err != nil {
		return nil, err
	}
	res.attempted = int64(sent + expected)
	res.failed = int64(final.SamplesDropped) + int64(len(respErrs)) + int64(bad)
	res.events = got

	// Latencies: from the due time of the tick whose frame carried the
	// decisive sample, for events decided inside the measured window,
	// kept by the segment the tick falls in.
	firstMeasured := fs.segTicks
	var (
		verdict    []float64 // every timed event
		action     []float64
		verdictSeg = make([][]float64, fs.segments)
		actionSeg  = make([][]float64, fs.segments)
		actions    int
	)
	for _, a := range got {
		n, ok := sampleIndex(a.ev.Time)
		if !ok {
			continue // a perturbed timestamp; already counted in bad
		}
		tick := fs.tickOf(sys.byID[a.ev.Session], n)
		if tick < firstMeasured {
			continue
		}
		seg := tick/fs.segTicks - 1
		d := due(tick)
		ms := a.at.Sub(d).Seconds() * 1e3
		verdict = append(verdict, ms)
		verdictSeg[seg] = append(verdictSeg[seg], ms)
		rec.add("e2e.verdict", 0, d, a.at)
		if a.ev.Raised {
			if at, ok := sys.act.firstCallAtOrAfter(a.ev.Session, d); ok {
				actionSeg[seg] = append(actionSeg[seg], at.Sub(d).Seconds()*1e3)
				action = append(action, at.Sub(d).Seconds()*1e3)
				actions++
				rec.add("e2e.action", 0, d, at)
			}
		}
	}
	if len(verdict) == 0 || actions == 0 {
		return nil, fmt.Errorf("harness: no alarm transitions in the measured window (%d events in all)", len(got))
	}
	res.notes = append(res.notes, fmt.Sprintf("%d verdict events, %d actions timed", len(verdict), actions))

	var segs []segment
	for i := 1; i <= fs.segments; i++ {
		a, b := bounds[i], bounds[i+1]
		segs = append(segs, segment{
			wall: b.rt.at.Sub(a.rt.at), cpu: b.rt.cpu - a.rt.cpu,
			work: float64(b.stats.SamplesIngested - a.stats.SamplesIngested),
		})
	}
	res.series["verdict_ms"] = append([]float64(nil), verdict...)
	res.series["action_ms"] = action
	res.series["verdict_p50_ms"] = segmentP50s(verdictSeg)
	res.series["action_p50_ms"] = segmentP50s(actionSeg)
	res.series["work_per_s"], res.series["cpu_us_per_work"] = segmentSeries(segs)
	res.e2e["verdict_p50_ms"] = quietCost(res.series["verdict_p50_ms"])
	res.e2e["action_p50_ms"] = quietCost(res.series["action_p50_ms"])
	res.e2e["work_per_s"], res.e2e["cpu_us_per_work"] = segmentLevels(segs)

	late := lateness[firstMeasured:]
	lateP99 := quantile(late, 0.99)
	if lateP99 > fs.tick.Seconds()*1e3 {
		res.valid = false
		res.notes = append(res.notes, fmt.Sprintf("generator ran late: p99 %.2f ms exceeds one tick", lateP99))
	}
	m := res.layer
	m["gen.late_p99_ms"] = lateP99
	m["gen.late_max_ms"] = quantile(late, 1)
	tailMetrics(m, verdict)
	m["stream.decisions_per_ksample"] = 1e3 * float64(final.Decisions) / float64(final.SamplesIngested)
	m["stream.queue_depth_max"] = float64(depthMax)
	m["stream.shed_share"] = float64(final.SamplesDropped) / float64(sent)
	m["stream.subscriber_dropped"] = float64(final.SubscriberDropped)
	rtMetrics(m, bounds[1].rt, bounds[fs.segments+1].rt, float64(bounds[fs.segments+1].stats.SamplesIngested-bounds[1].stats.SamplesIngested))

	err = sys.close()
	sys = nil
	if err == nil {
		err = moreBuilds(res, builds, build, (*servingSys).close)
	}
	return res, err
}

// segmentP50s is the median latency of every segment that timed at
// least minSegmentEvents events, in run order. When too few segments do
// (the tests' sizes) every segment with an event counts.
func segmentP50s(perSeg [][]float64) []float64 {
	for _, need := range []int{minSegmentEvents, 1} {
		var out []float64
		for _, xs := range perSeg {
			if len(xs) >= need {
				out = append(out, median(xs))
			}
		}
		if len(out) >= 4 || need == 1 {
			return out
		}
	}
	return nil
}

func hubCounters(st stream.HubStats) map[string]float64 {
	return map[string]float64{
		"samples_ingested": float64(st.SamplesIngested), "samples_dropped": float64(st.SamplesDropped),
		"decisions": float64(st.Decisions), "alarms_raised": float64(st.AlarmsRaised),
		"subscriber_dropped": float64(st.SubscriberDropped), "queue_depth": float64(st.QueueDepth),
	}
}
