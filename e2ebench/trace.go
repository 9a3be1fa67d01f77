package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span recording for the traced pass. Spans are taken by the harness
// around its own calls into each layer — the program under test is not
// instrumented — kept in memory, and written out once at exit. A nil
// *recorder records nothing, so the untraced pass runs the same code
// with tracing reduced to a nil check.

const traceSchema = "e2ebench-trace/v1"

// span is one timed interval. Parent is the id of the span that caused
// it (0 = none). Probe spans carry the work units they processed and the
// process CPU they consumed, so per-unit costs and self times can be
// derived from the file alone.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	Run     int     `json:"run"`
	Units   float64 `json:"units,omitempty"`
	CPUNs   int64   `json:"cpu_ns,omitempty"`
}

// counterSnap is one read of a layer's counters at a span boundary.
type counterSnap struct {
	AtNs   int64              `json:"at_ns"`
	Run    int                `json:"run"`
	Name   string             `json:"name"`
	Values map[string]float64 `json:"values"`
}

// traceFile is the on-disk document.
type traceFile struct {
	Schema   string        `json:"schema"`
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Spans    []span        `json:"spans"`
	Counters []counterSnap `json:"counters"`
}

type recorder struct {
	t0  time.Time
	run int

	mu sync.Mutex
	// spans and counters accumulate until write. guarded by mu.
	spans    []span
	counters []counterSnap
}

func newRecorder(run int) *recorder {
	return &recorder{t0: time.Now(), run: run}
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	return r.addSpan(span{Name: name, Parent: parent,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds()})
}

func (r *recorder) addSpan(s span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	s.Run = r.run
	r.spans = append(r.spans, s)
	return s.ID
}

// count records a counter snapshot taken now.
func (r *recorder) count(name string, values map[string]float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = append(r.counters, counterSnap{
		AtNs: time.Since(r.t0).Nanoseconds(), Run: r.run, Name: name, Values: values,
	})
}

func (r *recorder) file(workload string, seed uint64) traceFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return traceFile{Schema: traceSchema, Workload: workload, Seed: seed,
		Spans: append([]span(nil), r.spans...), Counters: append([]counterSnap(nil), r.counters...)}
}

func writeTraceFile(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func readTraceFile(path string) (traceFile, error) {
	var tf traceFile
	f, err := os.Open(path)
	if err != nil {
		return tf, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		return tf, fmt.Errorf("reading %s: %w", path, err)
	}
	if tf.Schema != traceSchema {
		return tf, fmt.Errorf("%s: schema %q, want %q", path, tf.Schema, traceSchema)
	}
	return tf, nil
}

// layerCost is one span name's aggregate in a trace file.
type layerCost struct {
	Name   string
	Count  int
	Units  float64
	Total  time.Duration // summed wall
	CPU    time.Duration // summed process CPU (probe spans only)
	Self   time.Duration // Total minus the children's Total
	Parent string
}

// summarize derives each span name's total and self time. A span's
// children are the spans naming it as parent: for in-line spans those
// nest in time; for probe spans the parent is the probe of the enclosing
// layer run over the same input, so "probe minus the probes of the layers
// it calls" is the same subtraction.
func summarize(tf traceFile) []layerCost {
	byID := make(map[int]*span, len(tf.Spans))
	for i := range tf.Spans {
		byID[tf.Spans[i].ID] = &tf.Spans[i]
	}
	agg := make(map[string]*layerCost)
	get := func(name string) *layerCost {
		lc := agg[name]
		if lc == nil {
			lc = &layerCost{Name: name}
			agg[name] = lc
		}
		return lc
	}
	for _, s := range tf.Spans {
		d := time.Duration(s.EndNs - s.StartNs)
		lc := get(s.Name)
		lc.Count++
		lc.Units += s.Units
		lc.Total += d
		lc.Self += d
		lc.CPU += time.Duration(s.CPUNs)
		if p := byID[s.Parent]; p != nil {
			lc.Parent = p.Name
			get(p.Name).Self -= d
		}
	}
	out := make([]layerCost, 0, len(agg))
	for _, lc := range agg {
		out = append(out, *lc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func printSummary(w io.Writer, tf traceFile) {
	fmt.Fprintf(w, "trace %s: workload %s seed %d, %d spans, %d counter snapshots\n",
		tf.Schema, tf.Workload, tf.Seed, len(tf.Spans), len(tf.Counters))
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s %14s  %s\n",
		"span", "count", "total_ms", "self_ms", "cpu_ms", "self_ns/unit", "parent")
	for _, lc := range summarize(tf) {
		perUnit := "-"
		if lc.Units > 0 {
			perUnit = fmt.Sprintf("%.1f", float64(lc.Self.Nanoseconds())/lc.Units)
		}
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.3f %14s  %s\n", lc.Name, lc.Count,
			lc.Total.Seconds()*1e3, lc.Self.Seconds()*1e3, lc.CPU.Seconds()*1e3, perUnit, lc.Parent)
	}
}
