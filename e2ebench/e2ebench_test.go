package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shortSizes is a pass small enough for go test and -race: well under a
// second of work per workload at the same shapes. Latencies are not
// asserted at this size — only that everything is emitted and correct.
func shortSizes() sizes {
	return sizes{
		fleet: fleetSize{sessions: 32, phases: 16, conns: 2, frameSamples: 10,
			tick: 2 * time.Millisecond, segTicks: 100, segments: 3},
		ingest: ingestSize{sessions: 8, phases: 4, conns: 2, frameSamples: 256, segRounds: 8, segments: 3},
		cascade: cascadeSize{sessions: 16, phases: 8, gens: 2, roundSamples: 100,
			segRounds: 2, segments: 3},
		sim: simSize{hosts: 8, victims: 4, attackers: 2, utilities: 26,
			segSimSeconds: 60, segments: 3, replicaSimSeconds: 30},
		builds:   2,
		probeDiv: 16,
	}
}

func mustInputs(t *testing.T, seed uint64) *inputs {
	t.Helper()
	in, err := generateInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func mustDeclaration(t *testing.T) *declaration {
	t.Helper()
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// reportedMetrics runs report and returns the metric names and values of
// the driver's result line, the last line printed.
func reportedMetrics(t *testing.T, decl *declaration, w workloadDef, res *result, traced bool) map[string]float64 {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, decl, w, res, traced); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", w.name, err, lines[len(lines)-1])
	}
	if line.Correct == nil || !*line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s: result line says correct=%v attempted=%d failed=%d", w.name, line.Correct, line.Attempted, line.Failed)
	}
	got := make(map[string]float64, len(line.Metrics))
	for name, m := range line.Metrics {
		if m.Unit == "" {
			t.Errorf("%s: metric %s has no unit", w.name, name)
		}
		got[name] = m.Value
	}
	return got
}

// TestShortPassEmitsEveryMetric runs every workload traced at the short
// size and checks the contract of both output modes: each declared metric
// exactly once, finite, nothing undeclared, no failed operation.
func TestShortPassEmitsEveryMetric(t *testing.T) {
	decl := mustDeclaration(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			res, err := runTraced(w, 1, shortSizes(), path)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Errorf("fail share %d/%d, want 0", res.failed, res.attempted)
			}
			for _, mode := range []struct {
				traced bool
				decls  []metricDecl
			}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
				got := reportedMetrics(t, decl, w, res, mode.traced)
				if len(got) != len(mode.decls) {
					t.Errorf("traced=%v: %d metrics reported, %d declared", mode.traced, len(got), len(mode.decls))
				}
				for _, d := range mode.decls {
					v, ok := got[d.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: metric %s missing or not finite (%v)", mode.traced, d.Name, v)
					}
					if !mode.traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v)
					}
				}
			}
			tf, err := readTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tf.Workload != w.name || len(tf.Spans) == 0 || len(tf.Counters) == 0 {
				t.Errorf("span file: workload %q, %d spans, %d counter snapshots", tf.Workload, len(tf.Spans), len(tf.Counters))
			}
		})
	}
}

// TestOracleIsLive perturbs one sample of one session on its way to the
// system — the timestamp of the sample that decides the session's first
// alarm transition — and expects the reference check to fail the run.
func TestOracleIsLive(t *testing.T) {
	sz := shortSizes()
	for _, tc := range []struct {
		workload   string
		sessions   int
		phases     int
		perSession func(sessionSpec) int
	}{
		{"fleet_paced", sz.fleet.sessions, sz.fleet.phases, sz.fleet.perSession},
		{"ingest_sat", sz.ingest.sessions, sz.ingest.phases, func(sessionSpec) int { return sz.ingest.perSession() }},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			in := mustInputs(t, 1)
			factories, err := detectorFactories(in)
			if err != nil {
				t.Fatal(err)
			}
			victim := makeSessions(in, tc.sessions, tc.phases)[0]
			det, err := factories[victim.family]()
			if err != nil {
				t.Fatal(err)
			}
			ref := in.referenceEvents(det, victim, tc.perSession(victim))
			if len(ref) == 0 {
				t.Fatal("reference has no transition to perturb")
			}
			n, ok := sampleIndex(ref[0].Time)
			if !ok {
				t.Fatalf("reference event time %v is not a sample timestamp", ref[0].Time)
			}
			in.perturbSession, in.perturbSample = victim.idx, n

			w, _ := findWorkload(tc.workload)
			res, err := w.run(in, sz, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Errorf("perturbed sample %d of %s went unnoticed: failed 0 of %d", n, victim.id, res.attempted)
			}
		})
	}
}

func transitionsBySession(events []arrival) map[string][]transition {
	out := make(map[string][]transition)
	for _, a := range events {
		out[a.ev.Session] = append(out[a.ev.Session], transition{Time: a.ev.Time, Raised: a.ev.Raised})
	}
	return out
}

// TestSameSeedSameOutputs: inputs derive from the seed alone, so two runs
// on one seed publish the same alarm events, score the same number of
// windows and end on the same cluster result.
func TestSameSeedSameOutputs(t *testing.T) {
	sz := shortSizes()
	sz.builds = 1
	run := func(name string, seed uint64) *result {
		t.Helper()
		w, _ := findWorkload(name)
		res, err := runUntraced(w, seed, sz)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	for _, name := range []string{"fleet_paced", "ingest_sat"} {
		a, b := transitionsBySession(run(name, 7).events), transitionsBySession(run(name, 7).events)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: event lists differ between two runs of seed 7 (%d and %d sessions with events)", name, len(a), len(b))
		}
	}
	if a, b := run("cascade_replay", 7).windows, run("cascade_replay", 7).windows; a == 0 || a != b {
		t.Errorf("cascade_replay: %d and %d windows scored on the same seed", a, b)
	}
	a, b, c := run("sim_cluster", 7).digest, run("sim_cluster", 7).digest, run("sim_cluster", 8).digest
	if a != b {
		t.Errorf("sim_cluster: result digests %x and %x on the same seed", a, b)
	}
	if a == c {
		t.Errorf("sim_cluster: seeds 7 and 8 share result digest %x; the digest is blind", a)
	}
}

// TestTraceFileRoundTrip writes a span file, reads it back unchanged, and
// checks the self times the summary derives from parent links.
func TestTraceFileRoundTrip(t *testing.T) {
	rec := newRecorder(3)
	at := func(ms int) time.Time { return rec.t0.Add(time.Duration(ms) * time.Millisecond) }
	outer := rec.add("gen.tick", 0, at(0), at(10))
	rec.add("pcm.encode", outer, at(0), at(4))
	rec.add("conn.write", outer, at(4), at(9))
	probe := rec.addSpan(span{Name: "probe/daemon.stream", StartNs: 0, EndNs: 100, Units: 10, CPUNs: 120})
	rec.addSpan(span{Name: "probe/pcm.decode", Parent: probe, StartNs: 200, EndNs: 230, Units: 10, CPUNs: 30})
	rec.count("hub", map[string]float64{"samples_ingested": 42})
	want := rec.file("fleet_paced", 9)

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeTraceFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the document:\n got %+v\nwant %+v", got, want)
	}
	if got.Schema != traceSchema || got.Spans[0].Run != 3 || got.Spans[1].Parent != got.Spans[0].ID {
		t.Errorf("schema %q, run %d, parent %d", got.Schema, got.Spans[0].Run, got.Spans[1].Parent)
	}

	self := make(map[string]time.Duration)
	for _, lc := range summarize(got) {
		self[lc.Name] = lc.Self
	}
	for name, want := range map[string]time.Duration{
		"gen.tick": time.Millisecond, "pcm.encode": 4 * time.Millisecond,
		"probe/daemon.stream": 70, "probe/pcm.decode": 30,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	var out bytes.Buffer
	printSummary(&out, got)
	if !strings.Contains(out.String(), "probe/daemon.stream") {
		t.Errorf("summary does not list the probe span:\n%s", out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the rule the acceptance check applies to run-to-run spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

// TestTeardownLeaksNoGoroutine runs the two workloads with listeners,
// connections and pumps and expects the goroutine count to return to
// where it started.
func TestTeardownLeaksNoGoroutine(t *testing.T) {
	sz := shortSizes()
	sz.builds = 2
	before := runtime.NumGoroutine()
	for _, name := range []string{"fleet_paced", "ingest_sat", "cascade_replay"} {
		w, _ := findWorkload(name)
		if _, err := runUntraced(w, 1, sz); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestDeclarationMatchesProgram keeps BENCHMARK.json and the program in
// step: the same workloads, setup_s declared, bounds within the contract.
func TestDeclarationMatchesProgram(t *testing.T) {
	data, err := readDeclarationFile()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program calibrated for %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, d := range append(append([]metricDecl(nil), doc.EndToEnd...), doc.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range doc.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) is not declared end to end")
	}
}
