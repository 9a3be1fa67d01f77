// Command e2ebench is the repository's end-to-end benchmark: it builds
// each workload's system in-process from the seed, runs it, checks the
// outputs against a reference, and prints every metric by name with its
// unit. See README.md in this directory for what is measured and why.
//
// Usage:
//
//	e2ebench [-workload fleet_paced|ingest_sat|cascade_replay|sim_cluster|all]
//	         [-seed N] [-seconds N] [-trace 0|1|FILE] [-aa N] [-segments]
//	e2ebench -trace-summary FILE
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, or the per-layer metrics with -trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

const (
	// segmentsPerSecond sizes a segment: a run's measured part is cut
	// into segments of fixed work, about half a second each on the
	// reference box, after one more that runs first and is discarded as
	// warm-up. Timed metrics are the quiet level of the measured segments
	// (stats.go), so a host stall moves a few segments, not the result.
	segmentsPerSecond = 2
	// minSegments is how many measured segments a closed loop runs even
	// when the box is so slow that they overrun the run length.
	minSegments = 8
	// setupBuilds is sizes.builds at the calibrated size: how many builds
	// a run times at each end. A build takes a few milliseconds, and on a
	// shared box any few milliseconds can be stretched severalfold by one
	// stall, so it takes many to catch the box leaving a build alone.
	setupBuilds = 31
	// defaultSeconds is the calibrated run length: run_seconds in
	// BENCHMARK.json.
	defaultSeconds = 25
)

// result is one run of one workload.
type result struct {
	valid     bool
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string
	// series holds per-segment values in run order, printed by -segments:
	// what the quiet levels were taken over, for whoever studies the noise.
	series map[string][]float64

	// Determinism witnesses, compared across same-seed runs by the tests.
	events  []arrival
	windows uint64
	digest  uint64
}

func newResult() *result {
	return &result{valid: true, e2e: make(map[string]float64), layer: make(map[string]float64),
		series: make(map[string][]float64)}
}

// timedBuilds builds a workload's system n times back to back, closing
// all but the last, which it returns, and records setup_s: the fastest
// of the builds the run has timed so far. Whatever else runs on the host
// only adds to a build's time, and a build is short enough that some of a
// run's builds escape it in any phase of the box: over four sets of ten
// runs the fastest of 62 builds spread 0.10 on average and the sets'
// medians differed by 8 % at most, against 0.16 and 10 % for the lower
// quartile and 0.15 and 7 % for the median.
func timedBuilds[T any](res *result, n int, build func() (T, error), closeSys func(T) error) (T, error) {
	var sys T
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := closeSys(sys); err != nil {
				return sys, fmt.Errorf("closing build %d: %w", i, err)
			}
		}
		// A build is not charged for collecting its predecessors' garbage.
		runtime.GC()
		start := time.Now()
		var err error
		if sys, err = build(); err != nil {
			return sys, fmt.Errorf("build %d: %w", i+1, err)
		}
		res.series["setup_s"] = append(res.series["setup_s"], time.Since(start).Seconds())
	}
	res.e2e["setup_s"] = slices.Min(res.series["setup_s"])
	return sys, nil
}

// moreBuilds times n more builds once the run is over and closes them
// all. A run's builds take a fifth of a second together, and the box
// speeds up and slows down in phases of seconds: builds from both ends of
// the run are less likely to all sit in a slow one.
func moreBuilds[T any](res *result, n int, build func() (T, error), closeSys func(T) error) error {
	sys, err := timedBuilds(res, n, build, closeSys)
	if err != nil {
		return err
	}
	return closeSys(sys)
}

// runtimeSettle collects garbage left by input generation and earlier
// builds, so the measured window starts from a quiet heap.
func runtimeSettle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// sizes fixes the work of every workload for one run. sizesFor returns
// the calibrated sizes; the tests run smaller ones.
type sizes struct {
	fleet   fleetSize
	ingest  ingestSize
	cascade cascadeSize
	sim     simSize
	// builds is how many times a run builds its system back to back
	// before its measured part, which uses the last one, and again after;
	// setup_s is the fastest of them all.
	builds int
	// probeDiv divides the layer probes' work; 1 outside tests.
	probeDiv int
	// keepAwake spins an idle-priority child on every CPU for the length
	// of the run (see keepawake_linux.go); the tests' sizes leave it off.
	keepAwake bool
}

// awake keeps the CPUs awake if the sizes ask for it, until stop is called.
func (sz sizes) awake() (stop func(), err error) {
	if !sz.keepAwake {
		return func() {}, nil
	}
	return startKeepAwake()
}

func sizesFor(seconds int) sizes {
	return sizes{fleet: fleetSizeFor(seconds), ingest: ingestSizeFor(seconds),
		cascade: cascadeSizeFor(seconds), sim: simSizeFor(seconds), builds: setupBuilds, probeDiv: 1,
		keepAwake: true}
}

// workloadDef ties a workload's name to its runner.
type workloadDef struct {
	name string
	unit string // the unit of work
	run  func(in *inputs, sz sizes, rec *recorder) (*result, error)
}

var workloads = []workloadDef{
	{"fleet_paced", "sample", func(in *inputs, sz sizes, rec *recorder) (*result, error) {
		return runFleetPaced(in, sz.fleet, sz.builds, rec)
	}},
	{"ingest_sat", "sample", func(in *inputs, sz sizes, rec *recorder) (*result, error) {
		return runIngestSat(in, sz.ingest, sz.builds, rec)
	}},
	{"cascade_replay", "window scored", func(in *inputs, sz sizes, rec *recorder) (*result, error) {
		return runCascadeReplay(in, sz.cascade, sz.builds, rec)
	}},
	{"sim_cluster", "simulated VM-tick", func(in *inputs, sz sizes, rec *recorder) (*result, error) {
		return runSimCluster(in, sz.sim, sz.builds, rec)
	}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == keepAwakeArg {
		if err := keepAwakeChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", defaultSeconds, "measured run length in seconds")
	trace := fs.String("trace", "0", "0: untraced pass, end-to-end metrics; 1 or FILE: traced pass, per-layer metrics and a span file")
	summary := fs.String("trace-summary", "", "print each layer's total and self time from a span file and exit")
	aa := fs.Int("aa", 0, "run the chosen workloads N times as two interleaved sets and compare them")
	segments := fs.Bool("segments", false, "also print the per-segment values the run's metrics were taken over")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *summary != "" {
		tf, err := readTraceFile(*summary)
		if err != nil {
			return err
		}
		printSummary(out, tf)
		return nil
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	decl, err := loadDeclaration()
	if err != nil {
		return err
	}
	var chosen []workloadDef
	if *workload == "all" {
		chosen = workloads
	} else if w, ok := findWorkload(*workload); ok {
		chosen = []workloadDef{w}
	} else {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	fmt.Fprintf(out, "e2ebench: GOMAXPROCS %d, NumCPU %d, seed %d, %d s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, *seconds)

	if *aa > 0 {
		return runAA(out, decl, chosen, *seed, *seconds, *aa)
	}
	for _, w := range chosen {
		var res *result
		if *trace == "0" {
			res, err = runUntraced(w, *seed, sizesFor(*seconds))
		} else {
			path := *trace
			if path == "1" {
				path = filepath.Join(".bench_build", "e2ebench", "trace-"+w.name+".json")
			}
			// The untraced and the traced pass share the run length.
			res, err = runTraced(w, *seed, sizesFor(max(1, *seconds/2)), path)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if *segments {
			printSeries(out, res)
		}
		if err := report(out, decl, w, res, *trace != "0"); err != nil {
			return err
		}
	}
	return nil
}

func runUntraced(w workloadDef, seed uint64, sz sizes) (*result, error) {
	in, err := generateInputs(seed)
	if err != nil {
		return nil, err
	}
	stopAwake, err := sz.awake()
	if err != nil {
		return nil, err
	}
	defer stopAwake()
	res, err := w.run(in, sz, nil)
	if err != nil {
		return nil, err
	}
	res.notes = append(in.notes, res.notes...)
	return res, nil
}

// declaration is the part of BENCHMARK.json the program reads back: the
// metric names it must emit, their units and their bounds.
type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration reads BENCHMARK.json from the working directory (the
// driver runs the benchmark from the root of a checkout) or its parent
// (go run from this directory).
func loadDeclaration() (*declaration, error) {
	data, err := readDeclarationFile()
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func readDeclarationFile() ([]byte, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if data, perr := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); perr == nil {
			return data, nil
		}
	}
	return data, err
}

// printSeries prints every per-segment series of a run, in run order.
func printSeries(out io.Writer, res *result) {
	names := make([]string, 0, len(res.series))
	for name := range res.series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "segments %s:", name)
		for _, v := range res.series[name] {
			fmt.Fprintf(out, " %.5g", v)
		}
		fmt.Fprintln(out)
	}
}

// report prints a run's metrics by name with units, then the driver's
// result object as the last line. It fails when the run did not produce
// a declared metric: the contract is every metric, every run.
func report(out io.Writer, decl *declaration, w workloadDef, res *result, traced bool) error {
	decls, values := decl.EndToEnd, res.e2e
	if traced {
		decls, values = decl.PerLayer, res.layer
	}
	fmt.Fprintf(out, "workload %s (unit of work: %s) valid: %v\n", w.name, w.unit, res.valid)
	for _, n := range res.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s missing or not finite", w.name, d.Name)
		}
		metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if !traced {
		// Per-layer numbers an untraced run gets for free are shown, not
		// reported: the driver's per-layer metrics come from -trace runs.
		names := make([]string, 0, len(res.layer))
		for name := range res.layer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "  %-36s %16.6g\n", "("+name+")", res.layer[name])
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
