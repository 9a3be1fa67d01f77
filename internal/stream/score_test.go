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
	return shardedScoringHub(t, 1)
}

// shardedScoringHub is a Block-policy hub of the given shard count with
// the raw profile registered, closed when the test ends.
func shardedScoringHub(t *testing.T, shards int) *Hub {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
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
	if err := h.AttachScorer(ss, ScorerConfig{Stride: 2, QueueCap: 6}); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-a", "raw"); err != nil {
		t.Fatal(err)
	}
	// 200 samples = 100 windows, while the scorer is blocked. The
	// pipeline holds at most QueueCap (6) plus the one staging batch
	// (scoreBatch, 64); the shard must shed the rest without stalling —
	// Drain would hang here if a full queue blocked it.
	ingestCounters(t, h, "vm-a", 1, 200)
	close(ss.gate) // release every pending and future scorer call
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h.ScorerStats()
	if st.WindowsDropped == 0 {
		t.Fatalf("expected sheds with queue cap 6 and 100 windows: %+v", st)
	}
	if st.WindowsScored+st.WindowsDropped != 100 {
		t.Fatalf("scored %d + dropped %d != 100 windows", st.WindowsScored, st.WindowsDropped)
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

// A scorer call takes at most scoreBatch windows, and a backlog of more
// fills it: with 150 windows queued behind a held call, the rounds after
// it take exactly scoreBatch until the queue runs short.
func TestScoringBatchCap(t *testing.T) {
	h := scoringHub(t)
	ss := &stubScorer{window: 2, gate: make(chan struct{})}
	if err := h.AttachScorer(ss, ScorerConfig{Stride: 2}); err != nil { // QueueCap 1024: nothing shed
		t.Fatal(err)
	}
	if err := h.Open("vm-a", "raw"); err != nil {
		t.Fatal(err)
	}
	ingestCounters(t, h, "vm-a", 1, 300) // 150 windows
	// The first call holds at most scoreBatch; once a full batch waits
	// behind it, the next round has one to take.
	for deadline := time.Now().Add(5 * time.Second); h.ScorerStats().QueueDepth < scoreBatch; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d windows: %+v", scoreBatch, h.ScorerStats())
		}
		time.Sleep(time.Millisecond)
	}
	close(ss.gate)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := h.ScorerStats(); st.WindowsScored != 150 || st.WindowsDropped != 0 || st.Batch != scoreBatch {
		t.Fatalf("stats %+v, want 150 windows scored, none dropped, batch %d", st, scoreBatch)
	}
	full := 0
	for _, n := range ss.batchSizes() {
		if n > scoreBatch {
			t.Fatalf("a scorer call took %d windows, cap %d: sizes %v", n, scoreBatch, ss.batchSizes())
		}
		if n == scoreBatch {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no call took a full batch of %d: sizes %v", scoreBatch, ss.batchSizes())
	}
}

// scorerGoroutines counts live goroutines running scoring-worker code.
func scorerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "stream.(*scoreWorker).run(")
}

// waitScorerGoroutines polls until exactly want scoring workers run: a
// worker of an earlier test's closed hub may still be on its way out
// (Close waits for its done channel, which it closes before it returns),
// so a single count can read high.
func waitScorerGoroutines(t *testing.T, want int) {
	t.Helper()
	n := scorerGoroutines()
	for deadline := time.Now().Add(5 * time.Second); n != want && time.Now().Before(deadline); n = scorerGoroutines() {
		time.Sleep(time.Millisecond)
	}
	if n != want {
		t.Fatalf("%d scoring workers running, want %d", n, want)
	}
}

// Close must score everything still queued before sealing: verdicts are
// part of the final session state. AttachScorer starts one worker for a
// scorer that cannot fork and one per shard for one that can, and after
// Close the process is back to the goroutines it had before the hub
// existed.
func TestScoringCloseDrainsQueue(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		ws      WindowScorer
		workers int
	}{
		{"flat", 1, &stubScorer{window: 5}, 1},
		{"flat/4shards", 4, &stubScorer{window: 5}, 1},
		{"sliding/4shards", 4, &slideScorer{stubScorer: stubScorer{window: 5}}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			h := shardedScoringHub(t, tc.shards)
			if err := h.AttachScorer(tc.ws, ScorerConfig{}); err != nil {
				t.Fatal(err)
			}
			if err := h.Drain(); err != nil { // the barrier's acks prove the workers are up
				t.Fatal(err)
			}
			waitScorerGoroutines(t, tc.workers)
			if st := h.ScorerStats(); st.Workers != tc.workers {
				t.Fatalf("stats report %d workers, want %d", st.Workers, tc.workers)
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
			if after := runtime.NumGoroutine(); after > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the hub, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
			waitScorerGoroutines(t, 0)
		})
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

// Stride 0 is the paper's ΔW = 50 (what core.DNNDetector and
// cascade_replay slide by), never the non-overlapping window, and a
// short model's window caps it; an explicit stride passes through for
// AttachScorer to judge.
func TestScoreStrideDefault(t *testing.T) {
	for _, tc := range []struct{ stride, window, want int }{
		{0, 200, 50},
		{-1, 200, 50},
		{0, 20, 20},
		{10, 200, 10},
		{200, 200, 200},
		{300, 200, 0}, // refused: longer than the window
	} {
		h := scoringHub(t)
		err := h.AttachScorer(&stubScorer{window: tc.window}, ScorerConfig{Stride: tc.stride})
		if tc.want == 0 {
			if err == nil {
				t.Errorf("stride %d, window %d: accepted", tc.stride, tc.window)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := h.ScorerStats().Stride; got != tc.want {
			t.Errorf("stride %d, window %d: scoring at %d, want %d", tc.stride, tc.window, got, tc.want)
		}
		h.Close()
	}
}

// slideScorer is a stubScorer that also implements SlidingScorer: its
// carries remember the last ordinal they saw, so a test can read back
// what the hub handed over. Its app verdict is the window's first access
// count, and a fork logs on its own.
type slideScorer struct {
	stubScorer
	strides []int         // NewCarry's arguments, in call order
	made    []*slideCarry // NewCarry's results, in call order
	log     []slideWindow
	forks   []*slideScorer
}

type slideCarry struct {
	last uint64 // ordinal of the last window scored with this carry
	hits int    // windows scored with it
}

type slideWindow struct {
	carry *slideCarry
	ord   uint64
	first float64 // the window's first access count
}

func (s *slideScorer) Fork() SlidingScorer {
	f := &slideScorer{stubScorer: stubScorer{window: s.window, gate: s.gate}}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forks = append(s.forks, f)
	return f
}

func (*slideCarry) Bytes() int { return 100 }

func (s *slideScorer) NewCarry(stride int) SessionCarry {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &slideCarry{}
	s.strides = append(s.strides, stride)
	s.made = append(s.made, c)
	return c
}

func (s *slideScorer) ScoreCarried(n int, flat []float64, carry []SessionCarry, ord []uint64, apps, attacks []int) (continued int) {
	s.ScoreFlat(n, flat, apps, attacks) // gate, record the call, fixed verdicts
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		c := carry[i].(*slideCarry)
		if c.last != 0 && ord[i] == c.last+1 {
			continued++
		}
		c.last = ord[i]
		c.hits++
		first := flat[i*2*s.window]
		apps[i] = int(first)
		s.log = append(s.log, slideWindow{c, ord[i], first})
	}
	return continued
}

// A SlidingScorer is scored through ScoreCarried alone; every session
// gets its own carry, made at its first scored window and handed back
// with each later one; ordinals count from 1; the continued count and the
// live carries' size surface in ScorerStats; and a closed session's
// carry stops counting.
func TestSlidingScorerCarriesPerSession(t *testing.T) {
	h := scoringHub(t)
	ss := &slideScorer{stubScorer: stubScorer{window: 4}}
	if err := h.AttachScorer(ss, ScorerConfig{Stride: 2}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"vm-a", "vm-b"} {
		if err := h.Open(id, "raw"); err != nil {
			t.Fatal(err)
		}
	}
	ingestCounters(t, h, "vm-a", 1, 3) // not a window yet
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := h.ScorerStats(); st.CarryBytes != 0 || len(ss.made) != 0 {
		t.Fatalf("carry made before the first scored window: %+v, %d made", st, len(ss.made))
	}
	ingestCounters(t, h, "vm-a", 4, 7) // samples 1..10: 4 windows
	ingestCounters(t, h, "vm-b", 1, 6) // 2 windows
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	if len(ss.made) != 2 || ss.strides[0] != 2 || ss.strides[1] != 2 {
		t.Fatalf("NewCarry calls %v, want one per session at stride 2", ss.strides)
	}
	next := map[*slideCarry]uint64{}
	for _, w := range ss.log {
		next[w.carry]++
		if w.ord != next[w.carry] {
			t.Fatalf("a session's windows arrived with ordinals out of 1,2,3…: %+v", ss.log)
		}
	}
	if a, b := ss.made[0].hits, ss.made[1].hits; a+b != 6 || a*b != 8 {
		t.Fatalf("carries saw %d and %d windows, want 4 and 2", a, b)
	}
	st := h.ScorerStats()
	if st.WindowsScored != 6 || st.WindowsContinued != 4 || st.CarryBytes != 200 {
		t.Fatalf("stats %+v, want 6 scored, 4 continued, 200 carry bytes", st)
	}
	if err := h.CloseSession("vm-b"); err != nil {
		t.Fatal(err)
	}
	if st := h.ScorerStats(); st.CarryBytes != 100 {
		t.Fatalf("carry bytes %d after closing one of two sessions, want 100", st.CarryBytes)
	}
}

// A shed window still consumes its ordinal: the scorer must see the gap,
// or it would continue a carry across rows it never computed.
func TestSlidingScorerSeesShedWindowsAsGaps(t *testing.T) {
	h := scoringHub(t)
	ss := &slideScorer{stubScorer: stubScorer{window: 2, gate: make(chan struct{})}}
	if err := h.AttachScorer(ss, ScorerConfig{Stride: 2, QueueCap: 6}); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-a", "raw"); err != nil {
		t.Fatal(err)
	}
	// 100 windows against a blocked scorer: more than QueueCap (6) and
	// one staging batch (64) hold, so some are shed.
	ingestCounters(t, h, "vm-a", 1, 200)
	close(ss.gate)
	ingestCounters(t, h, "vm-a", 201, 4) // two more once it runs again
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h.ScorerStats()
	if st.WindowsDropped == 0 || st.WindowsScored+st.WindowsDropped != 102 {
		t.Fatalf("stats %+v, want sheds and 102 windows in all", st)
	}
	var prev uint64
	gaps := uint64(0)
	for _, w := range ss.log {
		if w.ord <= prev {
			t.Fatalf("ordinals not increasing: %d after %d", w.ord, prev)
		}
		gaps += w.ord - prev - 1
		prev = w.ord
	}
	// The last window may itself have been shed, so the scored ones
	// account for every window up to the last ordinal seen.
	if prev > 102 || gaps != prev-st.WindowsScored {
		t.Fatalf("last ordinal %d with %d skipped, %d scored, %d dropped", prev, gaps, st.WindowsScored, st.WindowsDropped)
	}
	if want := st.WindowsScored - 1 - countGaps(ss.log); st.WindowsContinued != want {
		t.Fatalf("%d windows continued, want %d", st.WindowsContinued, want)
	}
}

// countGaps is how many logged windows did not follow their predecessor.
func countGaps(log []slideWindow) uint64 {
	var n uint64
	for i := 1; i < len(log); i++ {
		if log[i].ord != log[i-1].ord+1 {
			n++
		}
	}
	return n
}

// Sessions closing and the hub shutting down while windows are in flight
// must leave the carries with one toucher at a time (run under -race: a
// carry is written on every ScoreCarried, and read by ScorerStats).
func TestSlidingScorerCloseWhileInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	h := NewHub(cfg)
	if err := h.RegisterProfile("raw", func() (core.Detector, error) {
		return core.NewRawThreshold(0.5)
	}); err != nil {
		t.Fatal(err)
	}
	ss := &slideScorer{stubScorer: stubScorer{window: 4}}
	if err := h.AttachScorer(ss, ScorerConfig{Stride: 1, QueueCap: 8}); err != nil {
		t.Fatal(err)
	}
	const sessions = 6
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("vm-%d", i)
		if err := h.Open(id, "raw"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples := make([]pcm.Sample, 16)
			for k := 0; ; k++ {
				for j := range samples {
					samples[j] = pcm.Sample{Time: float64(k*16 + j), AccessNum: 1, MissNum: 1}
				}
				if _, err := h.Ingest(id, samples); err != nil {
					return // session or hub closed under us
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Each close waits for more windows to have been scored, so it
		// lands while the scorer is busy with the sessions' carries.
		scored := func(n uint64) {
			for h.ScorerStats().WindowsScored < n {
				runtime.Gosched()
			}
		}
		for i := 0; i < sessions/2; i++ {
			scored(uint64(50 * (i + 1)))
			h.CloseSession(fmt.Sprintf("vm-%d", i))
		}
		scored(50 * (sessions/2 + 1))
		h.Close()
	}()
	wg.Wait()
	st := h.ScorerStats()
	if st.WindowsScored == 0 || st.CarryBytes > 100*sessions/2 {
		t.Fatalf("stats after close %+v", st)
	}
}

// A SlidingScorer on a four-shard hub scores on four workers, three
// through forks: each session's windows reach exactly one scorer, with
// ordinals 1, 2, 3… and no gap, and the sessions' verdicts and the
// scoring counts equal a one-shard hub's on the same input (run under
// -race: four workers, each with its own carries, writing verdicts).
func TestScoringWorkersPerShard(t *testing.T) {
	const sessions, perSession, window, stride = 12, 60, 4, 2
	const wantWindows = (perSession-window)/stride + 1
	type served struct {
		ss       *slideScorer
		st       ScorerStats
		verdicts map[string]CascadeVerdict
	}
	serve := func(shards int) served {
		h := shardedScoringHub(t, shards)
		ss := &slideScorer{stubScorer: stubScorer{window: window}}
		if err := h.AttachScorer(ss, ScorerConfig{Stride: stride}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sessions; i++ {
			if err := h.Open(fmt.Sprintf("vm-%d", i), "raw"); err != nil {
				t.Fatal(err)
			}
		}
		// Session i's access counts are 1000(i+1)+k: a window's first one
		// names its session.
		batch := make([]pcm.Sample, 10)
		for from := 0; from < perSession; from += len(batch) {
			for i := 0; i < sessions; i++ {
				for j := range batch {
					k := from + j
					batch[j] = pcm.Sample{Time: float64(k), AccessNum: float64(1000*(i+1) + k), MissNum: float64(k)}
				}
				if _, err := h.Ingest(fmt.Sprintf("vm-%d", i), batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		out := served{ss: ss, st: h.ScorerStats(), verdicts: map[string]CascadeVerdict{}}
		for _, in := range h.Sessions() {
			if in.Cascade == nil {
				t.Fatalf("%d shards: session %s has no verdict", shards, in.ID)
			}
			out.verdicts[in.ID] = *in.Cascade
		}
		return out
	}
	one, four := serve(1), serve(4)

	if one.st.Workers != 1 || four.st.Workers != 4 || len(one.ss.forks) != 0 || len(four.ss.forks) != 3 {
		t.Fatalf("workers %d and %d, forks %d and %d; want 1 and 4 workers, 0 and 3 forks",
			one.st.Workers, four.st.Workers, len(one.ss.forks), len(four.ss.forks))
	}
	owner := map[int]*slideScorer{}
	next := map[int]uint64{}
	for _, sc := range append([]*slideScorer{four.ss}, four.ss.forks...) {
		for _, w := range sc.log {
			sess := int(w.first) / 1000
			if o, ok := owner[sess]; ok && o != sc {
				t.Fatalf("session %d reached two scorers", sess-1)
			}
			owner[sess] = sc
			next[sess]++
			if w.ord != next[sess] {
				t.Fatalf("session %d: window %d arrived with ordinal %d", sess-1, next[sess], w.ord)
			}
		}
	}
	used := map[*slideScorer]bool{}
	for sess := 1; sess <= sessions; sess++ {
		if next[sess] != wantWindows {
			t.Fatalf("session %d: %d windows scored, want %d", sess-1, next[sess], wantWindows)
		}
		used[owner[sess]] = true
	}
	if len(used) < 2 {
		t.Fatal("every session hashed to one shard: no second worker scored")
	}

	for id, want := range one.verdicts {
		if got := four.verdicts[id]; got != want {
			t.Fatalf("session %s: four shards' verdict %+v, one shard's %+v", id, got, want)
		}
	}
	if len(four.verdicts) != sessions || len(one.verdicts) != sessions {
		t.Fatalf("%d and %d sessions with verdicts, want %d", len(one.verdicts), len(four.verdicts), sessions)
	}
	a, b := one.st, four.st
	if a.WindowsScored != sessions*wantWindows || b.WindowsScored != a.WindowsScored ||
		b.WindowsContinued != a.WindowsContinued || b.WindowsDropped != 0 || a.WindowsDropped != 0 ||
		b.CarryBytes != a.CarryBytes || b.QueueDepth != 0 || a.QueueDepth != 0 {
		t.Fatalf("four shards' stats %+v, one shard's %+v", b, a)
	}
}
