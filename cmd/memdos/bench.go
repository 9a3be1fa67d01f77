package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"memdos/internal/analysis"
	"memdos/internal/attack"
	"memdos/internal/bus"
	"memdos/internal/cache"
	"memdos/internal/cluster"
	"memdos/internal/core"
	"memdos/internal/daemon"
	"memdos/internal/experiments"
	"memdos/internal/mem"
	"memdos/internal/pcm"
	"memdos/internal/stream"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// The bench subcommand measures the simulation's hot paths and the
// experiment harness's parallel speedup, and emits a machine-readable JSON
// document (schema memdos-bench/v1). CI runs it with -quick and compares
// against the committed BENCH_baseline.json; developers run it after perf
// work and refresh the baseline when an improvement is intentional.

// benchSchema versions the JSON document.
const benchSchema = "memdos-bench/v1"

// benchReps is how many times each micro-benchmark repeats; the fastest
// repetition is reported.
const benchReps = 5

// benchResult is one benchmark's measurement. Sweep benchmarks are timed
// as one whole pass (ns_per_op is the wall time of the pass) and marked
// wall_only: their time depends on core count and sweep size, so
// compareBaseline excludes them from the regression checks.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	WallSeconds float64 `json:"wall_seconds"`
	WallOnly    bool    `json:"wall_only,omitempty"`
}

// benchDoc is the emitted document.
type benchDoc struct {
	Schema string `json:"schema"`
	Quick  bool   `json:"quick"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// SweepSpeedup is sweep/serial wall time over sweep/parallel wall
	// time: the experiment harness's parallel efficiency on this machine.
	SweepSpeedup float64       `json:"sweep_speedup"`
	Results      []benchResult `json:"results"`
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced sweep sizes for CI smoke runs")
	out := fs.String("out", "", "write the JSON document to this file (default stdout)")
	baseline := fs.String("baseline", "", "compare against this baseline JSON; non-zero exit on regression")
	threshold := fs.Float64("threshold", 0.20, "allowed relative regression vs the baseline")
	fs.Parse(args)

	doc := benchDoc{
		Schema: benchSchema,
		Quick:  *quick,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}

	for _, mb := range microBenches {
		doc.Results = append(doc.Results, measure(mb.name, mb.fn))
	}

	serial, parallel, err := benchSweepPair(*quick)
	if err != nil {
		return err
	}
	recordWall := func(name string, wall float64) {
		fmt.Fprintf(os.Stderr, "%-24s %12.2f s (wall)\n", name, wall)
		doc.Results = append(doc.Results, benchResult{
			Name: name, NsPerOp: wall * 1e9, Iterations: 1,
			WallSeconds: wall, WallOnly: true,
		})
	}
	recordWall("sweep/alpha-serial", serial)
	recordWall("sweep/alpha-parallel", parallel)
	doc.SweepSpeedup = serial / parallel
	fmt.Fprintf(os.Stderr, "%-24s %.2fx (serial %.2fs / parallel %.2fs, %d CPUs)\n",
		"sweep speedup", doc.SweepSpeedup, serial, parallel, doc.CPUs)

	var failures []string
	if *baseline != "" {
		base, lerr := loadBaseline(*baseline)
		if lerr != nil {
			return lerr
		}
		failures = regressions(doc, base, *threshold)
		if len(failures) > 0 {
			// A suspect measurement on a shared runner is more often
			// scheduler noise than a real regression, so re-measure just
			// the suspects once before failing; a real regression
			// reproduces.
			fmt.Fprintf(os.Stderr, "re-measuring %d suspect benchmark(s)\n", len(failures))
			suspect := make(map[string]bool, len(failures))
			for _, f := range failures {
				suspect[benchNameOf(f)] = true
			}
			for i := range doc.Results {
				if !suspect[doc.Results[i].Name] {
					continue
				}
				for _, mb := range microBenches {
					if mb.name == doc.Results[i].Name {
						r := measure(mb.name, mb.fn)
						if r.NsPerOp < doc.Results[i].NsPerOp {
							doc.Results[i] = r
						}
					}
				}
			}
			failures = regressions(doc, base, *threshold)
		}
		if len(failures) == 0 {
			fmt.Fprintf(os.Stderr, "no regressions vs %s (threshold %.0f%%)\n", *baseline, 100**threshold)
		}
	}

	blob, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "regression: %s\n", f)
		}
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% vs %s",
			len(failures), 100**threshold, *baseline)
	}
	// The parallel harness must actually pay off on real multi-core
	// hardware; single-core machines (small CI runners) cannot show a
	// speedup, so the bar only applies from 8 CPUs up.
	if doc.CPUs >= 8 && doc.SweepSpeedup < 3 {
		return fmt.Errorf("sweep speedup %.2fx on %d CPUs, want >= 3x", doc.SweepSpeedup, doc.CPUs)
	}
	return nil
}

// microBenches are the hot-path benchmarks the regression gate tracks.
var microBenches = []struct {
	name string
	fn   func(*testing.B)
}{
	{"cache/access", benchCacheAccess},
	{"bus/resolve", benchBusResolve},
	{"mem/resolve-1024-vms", benchMemResolve},
	{"vmm/step", benchServerStep},
	{"cluster/step-256-hosts", benchClusterStep},
	{"probe/find-contested", benchFindContested},
	{"dnn/train-step", benchDNNTrainStep},
	{"dnn/infer-batched", benchDNNInferBatched},
	{"ingest/decode-batch", benchDecodeBatch},
	{"ingest/stream", benchIngestStream},
	{"analysis/vet-repo", benchVetRepo},
}

// measure runs one micro-benchmark benchReps times and keeps the fastest
// repetition: minimum-of-N is the standard estimator for ns/op under
// scheduler noise, which would otherwise dominate on small shared runners.
// Allocation counts are deterministic, so any repetition works.
func measure(name string, bench func(*testing.B)) benchResult {
	best := testing.Benchmark(bench)
	for rep := 1; rep < benchReps; rep++ {
		if r := testing.Benchmark(bench); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	r := best
	fmt.Fprintf(os.Stderr, "%-24s %12.1f ns/op %8d B/op %6d allocs/op\n",
		name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Iterations:  r.N,
		WallSeconds: r.T.Seconds(),
	}
}

func benchCacheAccess(b *testing.B) {
	c := cache.MustNew(cache.GeometryScaled)
	g := c.Geometry()
	for o := cache.Owner(0); o < 4; o++ {
		c.Access(o, c.AddrForSet(0, uint64(o)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint64(i)
		c.Access(cache.Owner(u%4), c.AddrForSet(int(u)%g.Sets, u%64))
	}
}

func benchBusResolve(b *testing.B) {
	bb := bus.New(1e8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for o := bus.Owner(0); o < 9; o++ {
			bb.RequestAccesses(o, 1000)
		}
		bb.RequestLock(9, 0.007)
		bb.Resolve(0.01)
	}
}

// benchMemResolve mirrors internal/mem's BenchmarkResolve1024VMs: one
// arbitration round of a 2-socket, 8-channel controller with 1024 owners.
func benchMemResolve(b *testing.B) {
	cfg := mem.DefaultNUMAConfig(2)
	cfg.ChannelsPerSocket = 4
	c := mem.MustNew(cfg)
	const n = 1024
	for o := mem.Owner(0); o < n; o++ {
		if err := c.SetHome(o, int(o)%2); err != nil {
			b.Fatal(err)
		}
		if err := c.SetRemoteFraction(o, float64(int(o)%4)/10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for o := mem.Owner(0); o < n; o++ {
			c.Request(o, 1e6, 0.7)
		}
		c.Resolve(0.01)
	}
}

func benchServerStep(b *testing.B) {
	s := vmm.MustNewServer(vmm.DefaultConfig())
	if _, err := s.AddApp("victim", workload.MustByAbbrev("BA").Service()); err != nil {
		b.Fatal(err)
	}
	atk, err := attack.NewBusLock(attack.Always{}, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.AddAttacker("attacker", atk); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := s.AddApp("util", workload.Utility()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// benchClusterStep times one lockstep tick of a 256-host cluster with
// 512 resident VMs. Workers is pinned to 1 so the number measures the
// per-host stepping cost itself, not this machine's core count.
func benchClusterStep(b *testing.B) {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 256
	cfg.SyncEvery = 1
	cfg.Workers = 1
	cfg.HostCapacity = 4
	c, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := c.AddVictim(fmt.Sprintf("victim%03d", i), "BA"); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		atk, err := attack.NewBusLock(attack.Always{}, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.AddAttacker(fmt.Sprintf("attacker%03d", i), atk, fmt.Sprintf("victim%03d", i%32)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 464; i++ {
		if err := c.AddUtility(fmt.Sprintf("util%03d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(1)
	}
}

func benchFindContested(b *testing.B) {
	c := cache.MustNew(cache.GeometryScaled)
	prober := attack.NewProber(c, 1)
	const victim cache.Owner = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prober.FindContested(func() {
			// Victim activity between fill and recheck: touch a band of
			// sets with fresh tags so they contest.
			for set := 0; set < 32; set++ {
				c.Access(victim, c.AddrForSet(set, uint64(i)<<8|uint64(set)))
			}
		}, 1)
	}
}

// benchDecodeBatch decodes one 64-sample binary frame into reused
// buffers — the per-frame cost of the fleet-scale ingest path. The
// codec contract is 0 allocs/op (TestDecodeBatchIntoZeroAlloc); the
// alloc gate here keeps it that way.
func benchDecodeBatch(b *testing.B) {
	samples := make([]pcm.Sample, 64)
	for i := range samples {
		samples[i] = pcm.Sample{
			Time: 0.01 * float64(i+1), AccessNum: 100 + float64(i%7), MissNum: 10,
			BWBytes: 6.4e7, AvgLatency: 3.2e-8,
		}
	}
	wire, err := pcm.AppendBatch(nil, "vm-bench", samples)
	if err != nil {
		b.Fatal(err)
	}
	body := wire[pcm.FramePrefixBytes:]
	dst := make([]pcm.Sample, 0, len(samples))
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pcm.DecodeBatchInto(dst[:0], body); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIngestStream pushes a 64-frame binary body through the full
// daemon handler — frame reader, decode, session intern, hub submit,
// detection. Shards is pinned to 1 so the number measures the ingest
// pipeline, not this machine's core count.
func benchIngestStream(b *testing.B) {
	cfg := stream.DefaultConfig()
	cfg.Policy = stream.Block
	cfg.Shards = 1
	hub := stream.NewHub(cfg)
	defer hub.Close()
	if err := hub.RegisterProfile("raw", func() (core.Detector, error) {
		return core.NewRawThreshold(0.5)
	}); err != nil {
		b.Fatal(err)
	}
	if err := hub.Open("vm-bench", "raw"); err != nil {
		b.Fatal(err)
	}
	srv := daemon.New(hub, nil)

	const framesPerReq, samplesPerFrame = 64, 64
	samples := make([]pcm.Sample, samplesPerFrame)
	var body []byte
	for f := 0; f < framesPerReq; f++ {
		for i := range samples {
			samples[i] = pcm.Sample{
				Time:      0.01 * float64(f*samplesPerFrame+i+1),
				AccessNum: 100, MissNum: 10,
			}
		}
		var err error
		body, err = pcm.AppendBatch(body, "vm-bench", samples)
		if err != nil {
			b.Fatal(err)
		}
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/ingest/stream", nil)
	req.Body = benchBody{rd}
	req.ContentLength = int64(len(body))
	w := &benchWriter{hdr: make(http.Header)}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w.reset()
		srv.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, &w.body)
		}
	}
}

// benchBody adapts the bench's reusable bytes.Reader to the request's
// ReadCloser without a per-iteration io.NopCloser wrapper.
type benchBody struct{ *bytes.Reader }

func (benchBody) Close() error { return nil }

// benchWriter is a resettable ResponseWriter for the ingest bench
// harness. A fresh httptest recorder (and request) per iteration cost
// thousands of allocs/op, burying the pipeline's own allocation count in
// harness noise — and the stock recorder cannot be reset because its
// wrote-header latch is private.
type benchWriter struct {
	hdr  http.Header
	body bytes.Buffer
	code int
}

func (w *benchWriter) Header() http.Header         { return w.hdr }
func (w *benchWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) reset() {
	w.code = 0
	w.body.Reset()
	clear(w.hdr)
}

// benchVetRepo times one full memdos-vet pass over the module: loading
// every package through go list export data and running the complete
// checker suite (including the v2 hotalloc/golife/benchpin checkers and
// the stale-suppression audit). CI pays this cost on every run, so the
// gate keeps it in the ~1 s budget; it must be run from the module root,
// like the rest of the bench subcommand.
func benchVetRepo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := analysis.Load("", "memdos/...")
		if err != nil {
			b.Fatal(err)
		}
		res := analysis.Run(pkgs, analysis.Checkers())
		if len(res.Findings) != 0 || len(res.Stale) != 0 {
			b.Fatalf("repo not vet-clean: %d findings, %d stale suppressions", len(res.Findings), len(res.Stale))
		}
	}
}

// benchSweepPair times one Fig. 17-style alpha sweep serially and in
// parallel and returns the two wall times. A warm-up pass runs first so
// neither timed pass pays for building the shared application profile.
func benchSweepPair(quick bool) (serial, parallel float64, err error) {
	alphas := []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	seeds := []uint64{1, 2}
	if quick {
		alphas = []float64{0.2, 0.6}
		seeds = []uint64{1}
	}
	timeOnce := func(workers int) (float64, error) {
		prev := experiments.SetParallelism(workers)
		defer experiments.SetParallelism(prev)
		start := time.Now()
		if _, err := experiments.Fig17AlphaSweep("KM", alphas, seeds); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	// Warm the shared profile cache so neither timed pass pays for it.
	if _, err = timeOnce(1); err != nil {
		return 0, 0, err
	}
	if serial, err = timeOnce(1); err != nil {
		return 0, 0, err
	}
	if parallel, err = timeOnce(0); err != nil { // 0 = all cores
		return 0, 0, err
	}
	return serial, parallel, nil
}

// loadBaseline reads and validates a baseline document.
func loadBaseline(path string) (benchDoc, error) {
	var base benchDoc
	blob, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("reading baseline: %w", err)
	}
	if err := json.Unmarshal(blob, &base); err != nil {
		return base, fmt.Errorf("parsing baseline: %w", err)
	}
	if base.Schema != benchSchema {
		return base, fmt.Errorf("baseline schema %q, want %q", base.Schema, benchSchema)
	}
	return base, nil
}

// benchNameOf extracts the benchmark name from a regressions message,
// which always starts "name: ...".
func benchNameOf(failure string) string {
	name, _, _ := strings.Cut(failure, ":")
	return name
}

// regressions lists the benchmarks that regressed versus the baseline,
// one message per failure, formatted "name: detail". Absolute ns/op is
// machine-dependent (the baseline may have been recorded on different
// hardware), so times are compared as each benchmark's share of the run's
// geometric mean: a benchmark only fails the check when it slowed down
// relative to the other benchmarks by more than the threshold. Allocation
// counts are machine-independent and compared directly. Wall-only sweep
// entries scale with core count and are skipped entirely; the sweep's
// health signal is SweepSpeedup, asserted by cmdBench itself.
func regressions(now, base benchDoc, threshold float64) []string {
	baseByName := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	type pair struct{ now, base benchResult }
	var common []pair
	for _, r := range now.Results {
		b, ok := baseByName[r.Name]
		if !ok || r.WallOnly || b.WallOnly {
			continue
		}
		common = append(common, pair{now: r, base: b})
	}
	if len(common) == 0 {
		return []string{"baseline: shares no benchmarks with this run"}
	}
	geomean := func(get func(pair) float64) float64 {
		s := 0.0
		for _, p := range common {
			s += math.Log(get(p))
		}
		return math.Exp(s / float64(len(common)))
	}
	gNow := geomean(func(p pair) float64 { return p.now.NsPerOp })
	gBase := geomean(func(p pair) float64 { return p.base.NsPerOp })

	var failures []string
	for _, p := range common {
		relNow := p.now.NsPerOp / gNow
		relBase := p.base.NsPerOp / gBase
		if relNow > relBase*(1+threshold) {
			failures = append(failures, fmt.Sprintf(
				"%s: %.1f ns/op is %.0f%% above its baseline share of the run",
				p.now.Name, p.now.NsPerOp, 100*(relNow/relBase-1)))
		}
		// Allocation regressions are deterministic; allow a slack of 2
		// allocs/op for growth paths amortized differently across N.
		if p.base.AllocsPerOp >= 0 && p.now.AllocsPerOp > p.base.AllocsPerOp+2 &&
			float64(p.now.AllocsPerOp) > float64(p.base.AllocsPerOp)*(1+threshold) {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline %d",
				p.now.Name, p.now.AllocsPerOp, p.base.AllocsPerOp))
		}
	}
	return failures
}
