package stream

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memdos/internal/core"
	"memdos/internal/pcm"
)

// stubScorer records every fused call and returns fixed verdicts. An
// optional gate makes ScoreFlat block until fed, to force queue
// build-up in the shed/fusion tests.
type stubScorer struct {
	window int
	gate   chan struct{}

	mu    sync.Mutex
	calls [][]float64 // flat input of each call
	ns    []int       // batch size of each call
}

func (s *stubScorer) Window() int { return s.window }

func (s *stubScorer) ScoreFlat(n int, flat []float64, apps, attacks []int) {
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.calls = append(s.calls, append([]float64(nil), flat[:n*s.window*2]...))
	s.ns = append(s.ns, n)
	s.mu.Unlock()
	for i := 0; i < n; i++ {
		apps[i] = 1
		attacks[i] = 2
	}
}

func (s *stubScorer) AttackName(class int) string { return fmt.Sprintf("atk%d", class) }

func (s *stubScorer) batchSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.ns...)
}

func scoringHub(t *testing.T) *Hub {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.Policy = Block
	h := NewHub(cfg)
	t.Cleanup(func() { h.Close() })
	if err := h.RegisterProfile("raw", func() (core.Detector, error) {
		return core.NewRawThreshold(0.5)
	}); err != nil {
		t.Fatal(err)
	}
	return h
}

func ingestCounters(t *testing.T, h *Hub, id string, from, n int) {
	t.Helper()
	samples := make([]pcm.Sample, n)
	for i := range samples {
		k := from + i
		samples[i] = pcm.Sample{Time: float64(k), AccessNum: float64(k), MissNum: 100 + float64(k)}
	}
	if _, err := h.Ingest(id, samples); err != nil {
		t.Fatal(err)
	}
}

// Sliding windows must reach the scorer with exactly the configured
// stride and the raw counter values, Drain must be a scoring barrier,
// and the verdict must land in SessionInfo with the namer's attack
// label, its Time and Windows advancing from one Drain to the next.
func TestScoringServiceVerdicts(t *testing.T) {
	h := scoringHub(t)
	ss := &stubScorer{window: 4}
	if err := h.AttachScorer(ss, ScorerConfig{Stride: 2}); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-a", "raw"); err != nil {
		t.Fatal(err)
	}
	// One new window (2 samples at stride 2) per Drain after the first 4:
	// every barrier must show a strictly later verdict.
	var last CascadeVerdict
	for _, step := range []struct{ from, n int }{{1, 4}, {5, 2}, {7, 2}, {9, 2}} {
		ingestCounters(t, h, "vm-a", step.from, step.n)
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		in, ok := h.Session("vm-a")
		if !ok || in.Cascade == nil {
			t.Fatalf("no cascade verdict after samples %d..%d: %+v", step.from, step.from+step.n-1, in)
		}
		if in.Cascade.Time <= last.Time || in.Cascade.Windows <= last.Windows {
			t.Fatalf("verdict did not advance across Drain: %+v after %+v", *in.Cascade, last)
		}
		last = *in.Cascade
	}

	// Samples 1..10, window 4, stride 2: windows starting at 1, 3, 5, 7.
	in, ok := h.Session("vm-a")
	if !ok || in.Cascade == nil {
		t.Fatalf("session has no cascade verdict: %+v", in)
	}
	if in.Cascade.Windows != 4 {
		t.Fatalf("scored %d windows, want 4", in.Cascade.Windows)
	}
	if in.Cascade.App != 1 || in.Cascade.AttackClass != 2 || in.Cascade.Attack != "atk2" {
		t.Fatalf("verdict %+v, want app 1 / attack 2 (atk2)", in.Cascade)
	}
	if in.Cascade.Time != 10 {
		t.Fatalf("verdict time %v, want 10 (last sample of the last window)", in.Cascade.Time)
	}

	var flat []float64
	ss.mu.Lock()
	for _, c := range ss.calls {
		flat = append(flat, c...)
	}
	ss.mu.Unlock()
	if len(flat) != 4*4*2 {
		t.Fatalf("scorer saw %d values, want %d", len(flat), 4*4*2)
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 4; i++ {
			k := float64(2*w + 1 + i)
			if flat[w*8+2*i] != k || flat[w*8+2*i+1] != 100+k {
				t.Fatalf("window %d sample %d: got (%v,%v), want (%v,%v)",
					w, i, flat[w*8+2*i], flat[w*8+2*i+1], k, 100+k)
			}
		}
	}

	st := h.ScorerStats()
	if !st.Attached || st.WindowsScored != 4 || st.WindowsDropped != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// A full scoring queue must shed windows (counted) without stalling the
// shard, and windows queued while the scorer is busy must fuse into
// larger batches.
func TestScoringQueueShedsAndFuses(t *testing.T) {
	h := scoringHub(t)
	ss := &stubScorer{window: 2, gate: make(chan struct{})}
	if err := h.AttachScorer(ss, ScorerConfig{Stride: 2, Batch: 8, QueueCap: 6}); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-a", "raw"); err != nil {
		t.Fatal(err)
	}
	// 80 samples = 40 windows, while the scorer is blocked. The pipeline
	// holds at most QueueCap (6) plus the one staging batch (8); the
	// shard must shed the rest without stalling — Drain would hang here
	// if a full queue blocked it.
	ingestCounters(t, h, "vm-a", 1, 80)
	close(ss.gate) // release every pending and future scorer call
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h.ScorerStats()
	if st.WindowsDropped == 0 {
		t.Fatalf("expected sheds with queue cap 6 and 40 windows: %+v", st)
	}
	if st.WindowsScored+st.WindowsDropped != 40 {
		t.Fatalf("scored %d + dropped %d != 40 windows", st.WindowsScored, st.WindowsDropped)
	}
	maxFill := 0
	for _, n := range ss.batchSizes() {
		if n > maxFill {
			maxFill = n
		}
	}
	if maxFill < 2 {
		t.Fatalf("no fused batches: sizes %v", ss.batchSizes())
	}
}

// scorerGoroutines counts live goroutines running hubScorer code.
func scorerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "stream.(*hubScorer).run(")
}

// Close must score everything still queued before sealing: verdicts are
// part of the final session state. AttachScorer starts exactly one
// goroutine, and after Close the process is back to the goroutines it
// had before the hub existed.
func TestScoringCloseDrainsQueue(t *testing.T) {
	before := runtime.NumGoroutine()
	h := scoringHub(t)
	ss := &stubScorer{window: 5}
	if err := h.AttachScorer(ss, ScorerConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil { // the barrier's ack proves the goroutine is up
		t.Fatal(err)
	}
	if n := scorerGoroutines(); n != 1 {
		t.Fatalf("AttachScorer started %d scorer goroutines, want 1", n)
	}
	if err := h.Open("vm-a", "raw"); err != nil {
		t.Fatal(err)
	}
	ingestCounters(t, h, "vm-a", 1, 25) // 5 non-overlapping windows
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if st := h.ScorerStats(); st.WindowsScored != 5 {
		t.Fatalf("close scored %d windows, want 5: %+v", st.WindowsScored, st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before || scorerGoroutines() != 0 {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the hub, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

func TestAttachScorerValidation(t *testing.T) {
	h := scoringHub(t)
	if err := h.AttachScorer(nil, ScorerConfig{}); err == nil {
		t.Fatal("nil scorer accepted")
	}
	if err := h.AttachScorer(&stubScorer{window: 0}, ScorerConfig{}); err == nil {
		t.Fatal("zero window accepted")
	}
	if err := h.AttachScorer(&stubScorer{window: 4}, ScorerConfig{Stride: 5}); err == nil {
		t.Fatal("stride > window accepted")
	}
	if err := h.AttachScorer(&stubScorer{window: 4}, ScorerConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := h.AttachScorer(&stubScorer{window: 4}, ScorerConfig{}); err == nil {
		t.Fatal("second scorer accepted")
	}
}
