package main

import (
	"fmt"
	"sync"
	"time"

	"memdos/internal/daemon"
	"memdos/internal/dnn"
	"memdos/internal/pcm"
	"memdos/internal/sim"
	"memdos/internal/stream"
)

// cascade_replay: the batched scoring service. Sessions are fed through
// Hub.Ingest directly (no HTTP), every completed window of the paper's
// W = 200, dW = 50 goes through the compiled LSTM-FCN cascade, and dnn
// does about nine tenths of the work; daemon and pcm are idle.

const (
	cascadeWindow = 200
	cascadeStride = 50
	cascadeApps   = 10
)

// cascadeSize fixes the workload: a round hands every session
// roundSamples samples and ends with Hub.Drain; a segment is segRounds
// rounds.
type cascadeSize struct {
	sessions     int
	phases       int
	gens         int // generator goroutines
	roundSamples int
	segRounds    int
	segments     int           // most measured segments; one more runs first and is discarded
	budget       time.Duration // run length; 0 runs exactly `segments`
}

// cascadeSegRounds calibrates a segment: 100 samples x 256 sessions is
// 512 windows a round, at most half the default 1024-window scoring
// queue, so no window can be shed; ten rounds took about half a second
// on the 2-core reference box at the commit that introduced the
// benchmark.
const cascadeSegRounds = 10

func cascadeSizeFor(seconds int) cascadeSize {
	return cascadeSize{sessions: 256, phases: 128, gens: 2, roundSamples: 100,
		segRounds: cascadeSegRounds, segments: segmentCap(seconds), budget: time.Duration(seconds) * time.Second}
}

// newCascade is the model the scoring service serves: a seeded, untrained
// compact cascade whose channel normalization is fitted to windows of the
// generated inputs. It stands for the model file memdosd would load, so
// it is an input, built outside setup_s.
func newCascade(in *inputs) (*dnn.Cascade, error) {
	c, err := dnn.NewCascade(cascadeApps, dnn.CompactLSTMFCNConfig, sim.NewRNG(in.seed^0xca5cade))
	if err != nil {
		return nil, err
	}
	var windows [][][]float64
	buf := make([]pcm.Sample, cascadeWindow)
	for f := range in.families {
		for n0 := 0; n0+cascadeWindow <= len(in.families[f].cycle); n0 += 5 * cascadeWindow {
			in.fillClean(buf, sessionSpec{family: f}, n0)
			win := make([][]float64, cascadeWindow)
			for t, smp := range buf {
				win[t] = []float64{smp.AccessNum, smp.MissNum}
			}
			windows = append(windows, win)
		}
	}
	if c.Norm, err = dnn.FitChannelNorm(windows); err != nil {
		return nil, err
	}
	return c, nil
}

// expectedWindows is how many windows a session emits over n samples.
func expectedWindows(n int) int {
	if n < cascadeWindow {
		return 0
	}
	return (n-cascadeWindow)/cascadeStride + 1
}

// buildCascade is the serving system (no listener) plus the compiled and
// attached scorer.
func buildCascade(in *inputs, c *dnn.Cascade, cs cascadeSize) (*servingSys, error) {
	sys, err := buildServing(in, servingSpec{sessions: cs.sessions, phases: cs.phases, policy: stream.Block})
	if err != nil {
		return nil, err
	}
	scorer, err := daemon.NewCascadeScorer(c, cascadeWindow, dnn.ScorerOptions{})
	if err == nil {
		err = sys.hub.AttachScorer(scorer, stream.ScorerConfig{Stride: cascadeStride})
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func runCascadeReplay(in *inputs, cs cascadeSize, builds int, rec *recorder) (*result, error) {
	res := newResult()
	model, err := newCascade(in)
	if err != nil {
		return nil, err
	}
	build := func() (*servingSys, error) { return buildCascade(in, model, cs) }
	sys, err := timedBuilds(res, builds, build, (*servingSys).close)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	perGen := cs.sessions / cs.gens
	samples := make([][]pcm.Sample, cs.gens)
	for g := range samples {
		samples[g] = make([]pcm.Sample, cs.roundSamples)
	}

	runtimeSettle()
	var (
		blocks     blockLog
		first      rtSnap
		firstStats stream.ScorerStats
		infos      []stream.SessionInfo
	)
	clock := newSegmentClock(cs.budget, cs.segments)
	for seg := 0; seg == 0 || clock.more(blocks.measured()); seg++ {
		before := readRT()
		scoredBefore := sys.hub.ScorerStats()
		if seg == 1 {
			first, firstStats = before, scoredBefore
		}
		for r := seg * cs.segRounds; r < (seg+1)*cs.segRounds; r++ {
			roundStart := time.Now()
			genErr := make([]error, cs.gens)
			var wg sync.WaitGroup
			for g := 0; g < cs.gens; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for _, ss := range sys.sessions[g*perGen : (g+1)*perGen] {
						in.fill(samples[g], ss, r*cs.roundSamples)
						n, err := sys.hub.Ingest(ss.id, samples[g])
						if err == nil && n != len(samples[g]) {
							err = fmt.Errorf("hub accepted %d of %d samples under Block", n, len(samples[g]))
						}
						if err != nil {
							genErr[g] = err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			ingested := time.Now()
			for _, err := range genErr {
				if err != nil {
					return nil, fmt.Errorf("generator: %w", err)
				}
			}
			if err := sys.hub.Drain(); err != nil {
				return nil, err
			}
			if rec != nil {
				round := rec.add("cascade.round", 0, roundStart, time.Now())
				rec.add("hub.ingest", round, roundStart, ingested)
				rec.add("hub.drain", round, ingested, time.Now())
			}
		}
		after := readRT()
		scoredAfter := sys.hub.ScorerStats()
		// The verdicts are acted on through the session views.
		infos = sys.hub.Sessions()
		read := time.Now()
		rec.count("scorer", scorerCounters(scoredAfter))
		if seg == 0 {
			continue
		}
		blocks.add(before, after, read, float64(scoredAfter.WindowsScored-scoredBefore.WindowsScored))
	}
	last := readRT()
	final := sys.hub.ScorerStats()
	hubFinal := sys.hub.Stats()

	perSession := (blocks.measured() + 1) * cs.segRounds * cs.roundSamples
	wantWindows := expectedWindows(perSession)
	expected := wantWindows * cs.sessions
	sent := perSession * cs.sessions
	if int(hubFinal.SamplesIngested) != sent || hubFinal.SamplesDropped != 0 {
		return nil, fmt.Errorf("harness: sent %d samples under Block, hub counts %d ingested %d dropped",
			sent, hubFinal.SamplesIngested, hubFinal.SamplesDropped)
	}
	bad, err := checkCascadeVerdicts(in, model, sys.sessions, infos, perSession, wantWindows)
	if err != nil {
		return nil, err
	}
	missing := expected - int(final.WindowsScored)
	if missing < 0 {
		missing = -missing
	}
	res.attempted = int64(sent + expected + cs.sessions)
	res.failed = int64(final.WindowsDropped) + int64(missing) + int64(bad)
	res.windows = final.WindowsScored
	res.notes = append(res.notes, fmt.Sprintf("%d segments of %d rounds, %d windows scored, %d final verdicts checked",
		len(blocks.segs), cs.segRounds, final.WindowsScored, cs.sessions))

	blocks.report(res)

	m := res.layer
	wall := last.at.Sub(first.at).Seconds()
	scored := float64(final.WindowsScored - firstStats.WindowsScored)
	if batches := float64(final.BatchesScored - firstStats.BatchesScored); batches > 0 {
		m["stream.score_batch_fill"] = scored / batches / float64(final.Batch)
	}
	m["stream.score_busy_share"] = (final.ScoreSeconds - firstStats.ScoreSeconds) / wall
	m["stream.windows_shed_share"] = float64(final.WindowsDropped) / float64(expected)
	m["stream.decisions_per_ksample"] = 1e3 * float64(hubFinal.Decisions) / float64(hubFinal.SamplesIngested)
	m["stream.shed_share"] = 0
	m["stream.subscriber_dropped"] = float64(hubFinal.SubscriberDropped)
	rtMetrics(m, first, last, scored)

	err = sys.close()
	sys = nil
	if err == nil {
		err = moreBuilds(res, builds, build, (*servingSys).close)
	}
	return res, err
}

// checkCascadeVerdicts compares every session's final cascade verdict
// with a batch-1 ScoreFlat of its last window on a second scorer compiled
// from the same cascade: the repo's byte-identity guarantee says batching
// must not change a verdict.
func checkCascadeVerdicts(in *inputs, model *dnn.Cascade, sessions []sessionSpec, infos []stream.SessionInfo, perSession, wantWindows int) (bad int, err error) {
	ref, err := model.Scorer(cascadeWindow, dnn.ScorerOptions{})
	if err != nil {
		return 0, err
	}
	if len(infos) != len(sessions) {
		return 0, fmt.Errorf("harness: %d sessions listed, want %d", len(infos), len(sessions))
	}
	byID := make(map[string]stream.SessionInfo, len(infos))
	for _, info := range infos {
		byID[info.ID] = info
	}
	lastEnd := cascadeWindow + (wantWindows-1)*cascadeStride
	buf := make([]pcm.Sample, cascadeWindow)
	flat := make([]float64, 0, 2*cascadeWindow)
	var app, attack [1]int
	for _, ss := range sessions {
		v := byID[ss.id].Cascade
		if v == nil {
			bad++
			continue
		}
		in.fillClean(buf, ss, lastEnd-cascadeWindow)
		flat = flat[:0]
		for _, smp := range buf {
			flat = append(flat, smp.AccessNum, smp.MissNum)
		}
		ref.ScoreFlat(1, flat, app[:], attack[:])
		_, timeOK := sampleIndex(v.Time)
		if v.App != app[0] || v.AttackClass != attack[0] || v.Windows != uint64(wantWindows) ||
			!timeOK || !sameTransition(transition{Time: v.Time}, transition{Time: sampleTime(lastEnd - 1)}) {
			bad++
		}
	}
	return bad, nil
}

func scorerCounters(st stream.ScorerStats) map[string]float64 {
	return map[string]float64{
		"windows_scored": float64(st.WindowsScored), "windows_dropped": float64(st.WindowsDropped),
		"batches_scored": float64(st.BatchesScored), "score_seconds": st.ScoreSeconds,
		"queue_depth": float64(st.QueueDepth),
	}
}
