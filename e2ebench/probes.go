package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"memdos/internal/attack"
	"memdos/internal/bus"
	"memdos/internal/cache"
	"memdos/internal/core"
	"memdos/internal/daemon"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
	"memdos/internal/mem"
	"memdos/internal/pcm"
	"memdos/internal/period"
	"memdos/internal/respond"
	"memdos/internal/stats"
	"memdos/internal/stream"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// Layer probes: a fixed slice of the generated inputs replayed through
// one layer's public entry point alone. A probe's span names the probe of
// the enclosing layer, run over the same input, as its parent, so a
// layer's self time is its probe minus its children's — the subtraction
// the trace summary performs.

const probeReps = 3

// probeCost is one probe's cost per unit, wall and process CPU. They
// differ where the layer runs goroutines of its own (the hub's shards).
type probeCost struct {
	wallNs, cpuNs float64
	spanID        int
}

type prober struct {
	in    *inputs
	rec   *recorder
	m     map[string]float64   // per-layer metrics, filled in
	costs map[string]probeCost // what accountedUs needs
	small *frameSet            // the fleet-shaped frame set, shared by two probe groups
	div   int                  // divides every probe's work; 1 outside tests
	// err is the first probe failure. Once set, measure does nothing and
	// returns zero costs, so probe groups read straight through without
	// a check per probe; runProbes reports it.
	err error
}

// scaled divides a probe's calibrated work by p.div.
func (p *prober) scaled(n int) int { return max(1, n/p.div) }

// fixture builds one repetition of a probe, untimed: it returns the timed
// body and an optional untimed teardown.
type fixture func() (run func() error, done func(), err error)

// body is the fixture of a probe that needs no set-up.
func body(run func() error) fixture {
	return func() (func() error, func(), error) { return run, nil, nil }
}

// measure runs a probe probeReps times and keeps the median repetition.
func (p *prober) measure(name string, parent int, units float64, fx fixture) probeCost {
	if p.err != nil {
		return probeCost{}
	}
	type rep struct {
		wall, cpu  time.Duration
		start, end time.Time
	}
	reps := make([]rep, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		run, done, err := fx()
		if err == nil {
			runtime.GC()
			cpu0, start := processCPU(), time.Now()
			err = run()
			end, cpu1 := time.Now(), processCPU()
			reps = append(reps, rep{wall: end.Sub(start), cpu: cpu1 - cpu0, start: start, end: end})
		}
		if done != nil {
			done()
		}
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return probeCost{}
		}
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].wall < reps[j].wall })
	mid := reps[len(reps)/2]
	out := probeCost{wallNs: float64(mid.wall.Nanoseconds()) / units, cpuNs: float64(mid.cpu.Nanoseconds()) / units}
	if p.rec != nil {
		out.spanID = p.rec.addSpan(span{Name: "probe/" + name, Parent: parent,
			StartNs: mid.start.Sub(p.rec.t0).Nanoseconds(), EndNs: mid.end.Sub(p.rec.t0).Nanoseconds(),
			Units: units, CPUNs: mid.cpu.Nanoseconds()})
	}
	return out
}

// frameSet is a slice of generated input cut into frames: per session and
// round, the decoded samples and their wire encoding.
type frameSet struct {
	sessions []sessionSpec
	batches  [][]pcm.Sample // round-major: batches[r*len(sessions)+s]
	wire     []byte         // every frame, length-prefixed, in order
	samples  int
}

func (p *prober) frames(sessions, phases, frameSamples, rounds int) *frameSet {
	fs := &frameSet{sessions: makeSessions(p.in, sessions, phases)}
	for r := 0; r < rounds && p.err == nil; r++ {
		for _, ss := range fs.sessions {
			b := make([]pcm.Sample, frameSamples)
			p.in.fillClean(b, ss, r*frameSamples)
			fs.batches = append(fs.batches, b)
			if fs.wire, p.err = pcm.AppendBatch(fs.wire, ss.id, b); p.err != nil {
				break
			}
			fs.samples += frameSamples
		}
	}
	return fs
}

func (fs *frameSet) session(i int) sessionSpec { return fs.sessions[i%len(fs.sessions)] }

// probeHub builds a hub with the frame set's sessions open. The shard
// buffer holds the whole frame set, so a probe times the layer and never
// its backpressure.
func (p *prober) probeHub(fs *frameSet, shards int) (*servingSys, error) {
	return buildServing(p.in, servingSpec{sessions: len(fs.sessions), phases: len(fs.sessions) / len(p.in.families),
		policy: stream.Block, shards: shards, shardBuffer: len(fs.batches)})
}

// noopScorer accepts windows and classifies nothing: what remains is the
// hub's window assembly and queueing.
type noopScorer struct{}

func (noopScorer) Window() int                            { return cascadeWindow }
func (noopScorer) ScoreFlat(int, []float64, []int, []int) {}

// serve pushes one request through the daemon's handler in memory.
func serve(srv http.Handler, method, target string, body []byte) error {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, target, w.Code, w.Body.String())
	}
	return nil
}

// runProbes measures every probe-backed per-layer metric into p.m and the
// costs the accounted-share computation needs into p.costs.
func (p *prober) runProbes() error {
	p.costs = make(map[string]probeCost)
	p.probeServingBig()
	p.probeServingSmall()
	p.probeDaemonViews()
	p.probeCore()
	p.probeDNN()
	p.probeRespond()
	p.probeSim()
	return p.err
}

// hubProbe measures run against a fresh hub holding the frame set's
// sessions, optionally with a scorer attached.
func (p *prober) hubProbe(name string, parent int, fs *frameSet, units float64, shards int, scorer stream.WindowScorer, run func(*servingSys) error) probeCost {
	return p.measure(name, parent, units, func() (func() error, func(), error) {
		sys, err := p.probeHub(fs, shards)
		if err != nil {
			return nil, nil, err
		}
		if scorer != nil {
			// The queue holds every window of the frame set: nothing sheds.
			err = sys.hub.AttachScorer(scorer, stream.ScorerConfig{Stride: cascadeStride, QueueCap: fs.samples / cascadeStride})
		}
		return func() error { return run(sys) }, func() { sys.close() }, err
	})
}

// streamAll posts the frame set's wire bytes to the daemon's streaming
// route in memory and drains the hub.
func streamAll(fs *frameSet) func(*servingSys) error {
	return func(sys *servingSys) error {
		if err := serve(daemon.New(sys.hub, nil), "POST", "/v1/ingest/stream", fs.wire); err != nil {
			return err
		}
		return sys.hub.Drain()
	}
}

// ingestAll hands the frame set's batches to Hub.Ingest; with drain it
// also waits for the detectors.
func ingestAll(fs *frameSet, drain bool) func(*servingSys) error {
	return func(sys *servingSys) error {
		for i, b := range fs.batches {
			if _, err := sys.hub.Ingest(fs.session(i).id, b); err != nil {
				return err
			}
		}
		if drain {
			return sys.hub.Drain()
		}
		return nil
	}
}

// encodeAll re-encodes the frame set's batches into one reused buffer.
func encodeAll(fs *frameSet) fixture {
	var buf []byte
	return body(func() error {
		buf = buf[:0]
		for i, b := range fs.batches {
			var err error
			if buf, err = pcm.AppendBatch(buf, fs.session(i).id, b); err != nil {
				return err
			}
		}
		return nil
	})
}

// decodeAll decodes every frame of the set into one reused sample slice.
func decodeAll(fs *frameSet) fixture {
	return body(func() error {
		fr := pcm.NewFrameReader(bytes.NewReader(fs.wire), pcm.MaxFrameBytes)
		var samples []pcm.Sample
		for {
			frame, err := fr.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if _, samples, err = pcm.DecodeBatchInto(samples[:0], frame); err != nil {
				return err
			}
		}
	})
}

// probeServingBig runs the ingest_sat shape — 64 sessions, 256-sample
// frames — through daemon, pcm, hub and detectors separately.
func (p *prober) probeServingBig() {
	big := p.frames(64, 4, 256, p.scaled(32))
	n := float64(big.samples)

	dm := p.hubProbe("daemon.stream", 0, big, n, 0, nil, streamAll(big))
	p.costs["daemon.stream"] = dm
	p.m["daemon.stream_ns_per_sample"] = dm.wallNs

	// The same samples as JSON, one request per round.
	var jsonBodies [][]byte
	for r := 0; r*len(big.sessions) < len(big.batches) && p.err == nil; r++ {
		var req stream.IngestRequest
		for s, ss := range big.sessions {
			req.Batches = append(req.Batches, stream.IngestBatch{Session: ss.id, Samples: big.batches[r*len(big.sessions)+s]})
		}
		var reqBody []byte
		reqBody, p.err = json.Marshal(req)
		jsonBodies = append(jsonBodies, reqBody)
	}
	js := p.hubProbe("daemon.json", 0, big, n, 0, nil, func(sys *servingSys) error {
		srv := daemon.New(sys.hub, nil)
		for _, reqBody := range jsonBodies {
			if err := serve(srv, "POST", "/v1/ingest", reqBody); err != nil {
				return err
			}
		}
		return sys.hub.Drain()
	})
	p.m["daemon.json_ns_per_sample"] = js.wallNs

	enc := p.measure("pcm.encode", 0, n, encodeAll(big))
	p.costs["pcm.encode"] = enc
	p.m["pcm.encode_ns_per_sample"] = enc.wallNs
	p.m["pcm.wire_bytes_per_sample"] = float64(len(big.wire)) / n
	p.m["pcm.decode_ns_per_sample"] = p.measure("pcm.decode", dm.spanID, n, decodeAll(big)).wallNs

	// stream: Ingest+Drain of the same batches, default shards and one;
	// then one shard with a no-op scorer, which adds only window assembly.
	hub := p.hubProbe("stream.hub", dm.spanID, big, n, 0, nil, ingestAll(big, true))
	p.costs["stream.hub"] = hub
	p.m["stream.hub_ns_per_sample"] = hub.wallNs
	hub1 := p.hubProbe("stream.hub_1shard", 0, big, n, 1, nil, ingestAll(big, true))
	p.m["stream.hub_ns_per_sample_1shard"] = hub1.wallNs
	asm := p.hubProbe("stream.hub_1shard_windows", 0, big, n, 1, noopScorer{}, ingestAll(big, true))
	p.costs["stream.window_assembly"] = probeCost{wallNs: asm.wallNs - hub1.wallNs, cpuNs: asm.cpuNs - hub1.cpuNs}
	p.m["stream.window_assembly_ns_per_sample"] = asm.wallNs - hub1.wallNs

	// core: the same samples through fresh detectors, no hub.
	p.costs["core.sds"] = p.measure("core.sds", hub.spanID, n, func() (func() error, func(), error) {
		factories, err := detectorFactories(p.in)
		if err != nil {
			return nil, nil, err
		}
		dets := make([]core.Detector, len(big.sessions))
		for i, ss := range big.sessions {
			if dets[i], err = factories[ss.family](); err != nil {
				return nil, nil, err
			}
		}
		return func() error {
			for i, b := range big.batches {
				d := dets[i%len(dets)]
				for _, smp := range b {
					d.Push(smp)
				}
			}
			return nil
		}, nil, nil
	})
}

// probeServingSmall runs the fleet_paced shape — 512 sessions, 10-sample
// frames — through daemon, pcm and hub.
func (p *prober) probeServingSmall() {
	small := p.frames(512, 256, 10, p.scaled(100))
	p.small = small
	frames := float64(len(small.batches))

	dm := p.hubProbe("daemon.stream_small", 0, small, frames, 0, nil, streamAll(small))
	p.costs["daemon.stream_small"] = dm
	p.m["daemon.stream_ns_per_frame_small"] = dm.wallNs
	p.m["pcm.decode_ns_per_frame_small"] = p.measure("pcm.decode_small", dm.spanID, frames, decodeAll(small)).wallNs
	p.costs["pcm.encode_small"] = p.measure("pcm.encode_small", 0, frames, encodeAll(small))

	// Only the Ingest calls are timed: what the caller's goroutine pays
	// per batch. The shards work concurrently; closing the hub drains them.
	p.m["stream.ingest_ns_per_batch_small"] = p.hubProbe("stream.ingest_small", dm.spanID, small, frames, 0, nil, ingestAll(small, false)).wallNs
}

// probeDaemonViews times the operator's read routes at 512 sessions, and
// the live heap one open session costs.
func (p *prober) probeDaemonViews() {
	if p.err != nil {
		return
	}
	// Collect twice around the build: what a sync.Pool held at the first
	// cycle is freed by the second, and earlier probes leave pools behind.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys, err := p.probeHub(p.small, 0)
	if err != nil {
		p.err = err
		return
	}
	defer sys.close()
	if p.err = ingestAll(p.small, true)(sys); p.err != nil {
		return
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.m["stream.live_heap_kb_per_session"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1024 / float64(len(p.small.sessions))

	srv := daemon.New(sys.hub, nil)
	calls := p.scaled(20)
	for _, v := range []struct{ metric, target string }{
		{"daemon.sessions_get_ms", "/v1/sessions"},
		{"daemon.metrics_scrape_ms", "/metrics"},
	} {
		c := p.measure(v.metric, 0, float64(calls), body(func() error {
			for i := 0; i < calls; i++ {
				if err := serve(srv, "GET", v.target, nil); err != nil {
					return err
				}
			}
			return nil
		}))
		p.m[v.metric] = c.wallNs / 1e6
	}
}

// probeCore times the detectors and the period estimator on the
// families' own samples.
func (p *prober) probeCore() {
	params := core.DefaultParams()
	n := p.scaled(100_000)
	for _, v := range []struct {
		metric string
		family int
		build  func(core.Profile) (core.Detector, error)
	}{
		{"core.sdsb_push_ns_per_sample", 0, func(pr core.Profile) (core.Detector, error) { return core.NewSDSB(pr, params) }},
		{"core.sds_push_ns_per_sample.km", 0, func(pr core.Profile) (core.Detector, error) { return core.NewSDS(pr, params) }},
		{"core.sds_push_ns_per_sample.fn", 1, func(pr core.Profile) (core.Detector, error) { return core.NewSDS(pr, params) }},
	} {
		samples := make([]pcm.Sample, n)
		p.in.fillClean(samples, sessionSpec{family: v.family}, 0)
		p.m[v.metric] = p.measure(v.metric, 0, float64(n), func() (func() error, func(), error) {
			prof, err := experiments.ProfileApp(p.in.families[v.family].app, profileDur, params)
			if err != nil {
				return nil, nil, err
			}
			det, err := v.build(prof)
			return func() error {
				for _, smp := range samples {
					det.Push(smp)
				}
				return nil
			}, nil, err
		}).wallNs
	}

	// SDS/P's analysis window: WPFactor periods of the FN moving average.
	fn := p.in.families[1].cycle
	access := make([]float64, len(fn))
	for i, smp := range fn {
		access[i] = smp.AccessNum
	}
	ma := stats.MA(access, params.W, params.DW)
	ma = ma[:min(len(ma), 64)]
	est := period.NewEstimator(period.DefaultEstimatorConfig())
	calls := p.scaled(2000)
	c := p.measure("period.estimate", 0, float64(calls), body(func() error {
		for i := 0; i < calls; i++ {
			est.Estimate(ma)
		}
		return nil
	}))
	p.m["period.estimate_us_per_call"] = c.wallNs / 1e3
}

// probeDNN times the compiled cascade scorer at three batch sizes.
func (p *prober) probeDNN() {
	if p.err != nil {
		return
	}
	model, err := newCascade(p.in)
	if err != nil {
		p.err = err
		return
	}
	const maxBatch = 256
	flat := make([]float64, 0, maxBatch*cascadeWindow*2)
	buf := make([]pcm.Sample, cascadeWindow)
	for _, ss := range makeSessions(p.in, maxBatch, maxBatch/len(p.in.families)) {
		p.in.fillClean(buf, ss, 0)
		for _, smp := range buf {
			flat = append(flat, smp.AccessNum, smp.MissNum)
		}
	}
	var scorer *dnn.BatchScorer
	c := p.measure("dnn.scorer_compile", 0, 1, body(func() error {
		var err error
		scorer, err = model.Scorer(cascadeWindow, dnn.ScorerOptions{})
		return err
	}))
	p.m["dnn.scorer_compile_ms"] = c.wallNs / 1e6
	if p.err != nil {
		return
	}

	apps, attacks := make([]int, maxBatch), make([]int, maxBatch)
	windowsPerRep := max(maxBatch, p.scaled(1024))
	for _, v := range []struct {
		metric string
		batch  int
	}{
		{"dnn.score_us_per_window_b1", 1},
		{"dnn.score_us_per_window_b64", 64},
		{"dnn.score_us_per_window_b256", 256},
	} {
		in := flat[:v.batch*cascadeWindow*2]
		scorer.ScoreFlat(v.batch, in, apps[:v.batch], attacks[:v.batch]) // size the arenas
		c := p.measure(v.metric, 0, float64(windowsPerRep), body(func() error {
			for done := 0; done < windowsPerRep; done += v.batch {
				scorer.ScoreFlat(v.batch, in, apps[:v.batch], attacks[:v.batch])
			}
			return nil
		}))
		p.costs[v.metric] = c
		p.m[v.metric] = c.wallNs / 1e3
	}
	in64 := flat[:64*cascadeWindow*2]
	c = p.measure("dnn.prepare", 0, float64(windowsPerRep), body(func() error {
		for done := 0; done < windowsPerRep; done += 64 {
			scorer.Prepare(64, in64)
		}
		return nil
	}))
	p.m["dnn.prepare_us_per_window"] = c.wallNs / 1e3
	p.m["dnn.macs_per_window"] = cascadeMACs()
}

// cascadeMACs computes, from the configuration, the multiply-accumulates
// one window costs through both cascade stages: three temporal
// convolutions over the window, the LSTM over the channel-shuffled input,
// and the dense head. Computed, not measured.
func cascadeMACs() float64 {
	stage := func(cfg dnn.LSTMFCNConfig) float64 {
		in, macs := cfg.Channels, 0
		for i, f := range cfg.ConvFilters {
			macs += cascadeWindow * cfg.Kernels[i] * in * f
			in = f
		}
		macs += cfg.Channels * 4 * cfg.LSTMCells * (cascadeWindow + cfg.LSTMCells)
		macs += (cfg.ConvFilters[2] + cfg.LSTMCells) * cfg.Classes
		return float64(macs)
	}
	return stage(dnn.CompactLSTMFCNConfig(2, cascadeApps)) +
		stage(dnn.CompactLSTMFCNConfig(2+cascadeApps, dnn.NumAttackClasses))
}

// probeRespond drives the policy engine directly at 512 sessions.
func (p *prober) probeRespond() {
	const sessions = 512
	rounds := p.scaled(4)
	names := make([]string, sessions)
	for i := range names {
		names[i] = fmt.Sprintf("vm-%04d", i)
	}
	// Every repetition starts from a fresh engine that knows all sessions.
	var (
		eng *respond.Engine
		now float64
	)
	fresh := func(run func() error) fixture {
		return func() (func() error, func(), error) {
			var err error
			if eng, err = respond.New(respond.DefaultConfig(), respond.NewLogActuator()); err != nil {
				return nil, nil, err
			}
			now = 0
			for _, name := range names {
				now += tpcm
				if err := eng.Observe(name, now, false); err != nil {
					return nil, nil, err
				}
			}
			return run, nil, nil
		}
	}
	obs := p.measure("respond.observe", 0, float64(sessions*rounds*2), fresh(func() error {
		for r := 0; r < rounds; r++ {
			for _, raised := range []bool{true, false} {
				for _, name := range names {
					now += tpcm
					if err := eng.Observe(name, now, raised); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}))
	p.m["respond.observe_us_per_event"] = obs.wallNs / 1e3
	if p.err != nil {
		return
	}
	st := eng.Stats()
	p.m["respond.actions_per_raise"] = float64(st.Throttles+st.BandwidthLimits+st.Partitions+st.Releases+st.Migrations) / float64(sessions*rounds)

	ticks := p.scaled(200)
	tick := p.measure("respond.tick", 0, float64(ticks), fresh(func() error {
		for i := 0; i < ticks; i++ {
			now += tpcm
			eng.Tick(now)
		}
		return nil
	}))
	p.m["respond.tick_us"] = tick.wallNs / 1e3
}

// probeSim times the simulator's layers: the sim_cluster population for
// a few sync quanta, one host, and the cache, bus and memory models at
// one host's size.
func (p *prober) probeSim() {
	const perHost, quanta, quantum = 8, 10, 50
	hosts := p.scaled(128)
	clusterProbe := func(name string, workers int) probeCost {
		return p.measure(name, 0, float64(hosts*quanta), func() (func() error, func(), error) {
			c, err := buildCluster(p.in.seed, hosts, hosts/2, hosts/4, hosts*perHost-hosts/2-hosts/4, workers)
			return func() error {
				for i := 0; i < quanta; i++ {
					if err := c.Step(quantum); err != nil {
						return err
					}
				}
				return nil
			}, nil, err
		})
	}
	serial := clusterProbe("cluster.step", 1)
	p.costs["cluster.step"] = probeCost{wallNs: serial.wallNs / (perHost * quantum), cpuNs: serial.cpuNs / (perHost * quantum)}
	p.m["cluster.step_us_per_host_quantum"] = serial.wallNs / 1e3
	p.m["cluster.speedup_workers"] = serial.wallNs / clusterProbe("cluster.step_parallel", 0).wallNs

	// As many VM-ticks as the cluster probe stepped, so the cluster's self
	// time is its probe minus this one.
	steps := hosts * quanta * quantum
	host := p.measure("vmm.step", serial.spanID, float64(steps*perHost), func() (func() error, func(), error) {
		cfg := vmm.DefaultConfig()
		cfg.Seed = p.in.seed
		cfg.DisableHistory = true
		numa := mem.DefaultNUMAConfig(1)
		cfg.Mem = &numa
		srv, err := vmm.NewServer(cfg)
		if err != nil {
			return nil, nil, err
		}
		if _, err := srv.AddApp("victim", workload.MustByAbbrev(simApp).Service()); err != nil {
			return nil, nil, err
		}
		atk, err := attack.NewBusLock(attack.Always{}, simBusLockDuty)
		if err != nil {
			return nil, nil, err
		}
		if _, err := srv.AddAttacker("attacker", atk); err != nil {
			return nil, nil, err
		}
		for i := 2; i < perHost; i++ {
			if _, err := srv.AddApp(fmt.Sprintf("util%d", i), workload.Utility()); err != nil {
				return nil, nil, err
			}
		}
		return func() error {
			for i := 0; i < steps; i++ {
				srv.Step()
			}
			return nil
		}, nil, nil
	})
	p.m["vmm.step_ns_per_vm_tick"] = host.wallNs

	accesses := p.scaled(2_000_000)
	p.m["cache.access_ns"] = p.measure("cache.access", 0, float64(accesses), func() (func() error, func(), error) {
		cc, err := cache.New(cache.GeometryScaled)
		if err != nil {
			return nil, nil, err
		}
		sets := cc.Geometry().Sets
		return func() error {
			for i := 0; i < accesses; i++ {
				u := uint64(i)
				cc.Access(cache.Owner(u%perHost), cc.AddrForSet(int(u)%sets, u%64))
			}
			return nil
		}, nil, nil
	}).wallNs

	resolves := p.scaled(200_000)
	p.m["bus.resolve_ns_per_vm"] = p.measure("bus.resolve", 0, float64(resolves*perHost), func() (func() error, func(), error) {
		b := bus.New(1e8)
		return func() error {
			for i := 0; i < resolves; i++ {
				for o := bus.Owner(0); o < perHost-1; o++ {
					b.RequestAccesses(o, 1000)
				}
				b.RequestLock(perHost-1, simBusLockDuty*tpcm)
				b.Resolve(tpcm)
			}
			return nil
		}, nil, nil
	}).wallNs

	p.m["mem.resolve_ns_per_vm"] = p.measure("mem.resolve", 0, float64(resolves*perHost), func() (func() error, func(), error) {
		mc, err := mem.New(mem.DefaultNUMAConfig(1))
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			for i := 0; i < resolves; i++ {
				for o := mem.Owner(0); o < perHost; o++ {
					mc.Request(o, 1e6, 0.7)
				}
				mc.Resolve(tpcm)
			}
			return nil
		}, nil, nil
	}).wallNs
}
