package main

import (
	"fmt"
	"sync"
	"time"

	"memdos/internal/pcm"
	"memdos/internal/stream"
)

// ingest_sat: capacity. The same pcm/daemon/stream code as fleet_paced
// used the opposite way — few sessions, big frames, a closed loop — so
// per-sample decode and detector work dominate and per-frame costs vanish.

// ingestSize fixes the workload: each segment is segRounds rounds, a
// round being one frameSamples-sample frame for every session.
type ingestSize struct {
	sessions     int
	phases       int
	conns        int
	frameSamples int
	segRounds    int
	segments     int           // most measured segments; one more runs first and is discarded
	budget       time.Duration // run length; 0 runs exactly `segments`
}

// ingestSegRounds calibrates a segment: at the commit that introduced
// the benchmark one 200-round segment (3.3 M samples) took about half a
// second on the 2-core reference box.
const ingestSegRounds = 200

func ingestSizeFor(seconds int) ingestSize {
	return ingestSize{sessions: 64, phases: 4, conns: 2, frameSamples: 256,
		segRounds: ingestSegRounds, segments: segmentCap(seconds), budget: time.Duration(seconds) * time.Second}
}

// perSession is how many samples every session is sent when all
// `segments` measured segments run.
func (is ingestSize) perSession() int { return is.perSessionAfter(is.segments) }

// perSessionAfter is how many samples every session has been sent once
// the warm-up segment and `measured` more have run.
func (is ingestSize) perSessionAfter(measured int) int {
	return (measured + 1) * is.segRounds * is.frameSamples
}

// segmentCap is the most measured segments a closed loop runs in a run
// of `seconds`. Segment work is fixed and calibrated to half a second on
// the reference box, so a run does as many segments as fit its length —
// it does not take longer on a slower box — and never more than four
// times the calibrated count.
func segmentCap(seconds int) int { return 4 * seconds * segmentsPerSecond }

func runIngestSat(in *inputs, is ingestSize, builds int, rec *recorder) (*result, error) {
	res := newResult()
	spec := servingSpec{sessions: is.sessions, phases: is.phases, conns: is.conns,
		policy: stream.Block, listen: true}
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

	perConn := is.sessions / is.conns
	segSamples := uint64(is.segRounds * is.sessions * is.frameSamples)
	samples := make([][]pcm.Sample, is.conns)
	for c := range samples {
		samples[c] = make([]pcm.Sample, is.frameSamples)
	}

	runtimeSettle()
	var (
		blocks   blockLog
		depthMax int64
		first    rtSnap
	)
	clock := newSegmentClock(is.budget, is.segments)
	for seg := 0; seg == 0 || clock.more(blocks.measured()); seg++ {
		before := readRT()
		if seg == 1 {
			first = before
		}
		genErr := make([]error, is.conns)
		var wg sync.WaitGroup
		for c := 0; c < is.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				conn := sys.conns[c]
				mine := sys.sessions[c*perConn : (c+1)*perConn]
				for r := seg * is.segRounds; r < (seg+1)*is.segRounds; r++ {
					for _, ss := range mine {
						in.fill(samples[c], ss, r*is.frameSamples)
						chunk, err := pcm.AppendBatch(conn.begin(), ss.id, samples[c])
						if err == nil {
							err = conn.send(chunk)
						}
						if err != nil {
							genErr[c] = err
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		written := time.Now()
		for _, err := range genErr {
			if err != nil {
				return nil, fmt.Errorf("generator: %w", err)
			}
		}
		// The segment ends when the hub has taken in everything written
		// and its detectors have processed it.
		target := uint64(seg+1) * segSamples
		for {
			st := sys.hub.Stats()
			depthMax = max(depthMax, st.QueueDepth)
			if st.SamplesIngested+st.SamplesDropped >= target {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := sys.hub.Drain(); err != nil {
			return nil, err
		}
		after := readRT()
		// The operator acts on the session list: time until it has been
		// read back counts towards the block's action latency.
		infos := sys.hub.Sessions()
		read := time.Now()
		if len(infos) != is.sessions {
			return nil, fmt.Errorf("harness: %d sessions listed, want %d", len(infos), is.sessions)
		}
		if rec != nil {
			block := rec.add("ingest.segment", 0, before.at, read)
			rec.add("conn.write", block, before.at, written)
			rec.add("hub.drain", block, written, after.at)
			rec.add("hub.sessions", block, after.at, read)
			rec.count("hub", hubCounters(sys.hub.Stats()))
		}
		if seg == 0 {
			continue
		}
		blocks.add(before, after, read, float64(segSamples))
	}
	last := readRT()

	accepted, refused, respErrs, err := sys.finishStreams()
	if err != nil {
		return nil, err
	}
	final := sys.hub.Stats()
	got := stopEvents()

	perSession := is.perSessionAfter(blocks.measured())
	sent := perSession * is.sessions
	if err := checkSamples(final, accepted, refused, sent); err != nil {
		return nil, err
	}
	expected, bad, err := sys.checkEvents(got, func(sessionSpec) int { return perSession })
	if err != nil {
		return nil, err
	}
	res.attempted = int64(sent + expected)
	res.failed = int64(final.SamplesDropped) + int64(len(respErrs)) + int64(bad)
	res.events = got
	res.notes = append(res.notes, fmt.Sprintf("%d segments of %d samples, %d alarm events checked", len(blocks.segs), segSamples, expected))

	blocks.report(res)

	m := res.layer
	m["stream.decisions_per_ksample"] = 1e3 * float64(final.Decisions) / float64(final.SamplesIngested)
	m["stream.queue_depth_max"] = float64(depthMax)
	m["stream.shed_share"] = float64(final.SamplesDropped) / float64(sent)
	m["stream.subscriber_dropped"] = float64(final.SubscriberDropped)
	rtMetrics(m, first, last, float64(len(blocks.segs))*float64(segSamples))

	err = sys.close()
	sys = nil
	if err == nil {
		err = moreBuilds(res, builds, build, (*servingSys).close)
	}
	return res, err
}
