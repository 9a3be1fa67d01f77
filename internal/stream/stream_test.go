package stream

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"memdos/internal/core"
	"memdos/internal/metrics"
	"memdos/internal/pcm"
	"memdos/internal/sim"
)

// testProfile is a synthetic attack-free profile: counters hover around
// access=100, miss=10.
func testProfile() core.Profile {
	return core.Profile{AccessMean: 100, AccessStd: 5, MissMean: 10, MissStd: 2}
}

// fastParams shrinks the Table I windows so alarms trigger within tens of
// samples instead of thousands.
func fastParams() core.Params {
	p := core.DefaultParams()
	p.W, p.DW, p.HC, p.Alpha = 20, 10, 2, 0.5
	return p
}

func sdsbFactory(p core.Params) DetectorFactory {
	return func() (core.Detector, error) { return core.NewSDSB(testProfile(), p) }
}

// recorder wraps a detector and keeps every decision it emits, so a test
// can hold a session's whole decision stream against an offline replay.
type recorder struct {
	core.Detector
	mu  sync.Mutex
	log []core.Decision
}

func (r *recorder) Push(s pcm.Sample) []core.Decision {
	ds := r.Detector.Push(s)
	r.mu.Lock()
	r.log = append(r.log, ds...)
	r.mu.Unlock()
	return ds
}

func (r *recorder) decisions() []core.Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.Decision(nil), r.log...)
}

// recorders wraps a factory so that every detector it builds records;
// the hub builds one per Open, so all[i] belongs to the i-th session
// opened on the profile (by one goroutine: all is not locked).
type recorders struct{ all []*recorder }

func (rs *recorders) wrap(f DetectorFactory) DetectorFactory {
	return func() (core.Detector, error) {
		d, err := f()
		if err != nil {
			return nil, err
		}
		r := &recorder{Detector: d}
		rs.all = append(rs.all, r)
		return r, nil
	}
}

// sessionSamples generates a deterministic per-session stream: clean
// around the profile for the first half, collapsed AccessNum (as under
// bus locking) for the second.
func sessionSamples(seed uint64, n int) []pcm.Sample {
	r := sim.NewRNG(seed)
	out := make([]pcm.Sample, n)
	for i := range out {
		access := 100 + 4*math.Sin(float64(i)/9) + r.Float64()
		miss := 10 + r.Float64()
		if i >= n/2 {
			access *= 0.3 // attack: bus locking collapses AccessNum
		}
		out[i] = pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: access, MissNum: miss}
	}
	return out
}

func newTestHub(t *testing.T, cfg Config, p core.Params) *Hub {
	t.Helper()
	h := NewHub(cfg)
	t.Cleanup(func() { h.Close() })
	if err := h.RegisterProfile("sdsb", sdsbFactory(p)); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestOpenIngestInfo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	h := newTestHub(t, cfg, fastParams())
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
	samples := sessionSamples(1, 200)
	n, err := h.Ingest("vm-1", samples)
	if err != nil || n != len(samples) {
		t.Fatalf("Ingest = %d, %v", n, err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	in, ok := h.Session("vm-1")
	if !ok {
		t.Fatal("session vanished")
	}
	if in.Ingested != 200 || in.Pending != 0 || in.Dropped != 0 {
		t.Errorf("info = %+v", in)
	}
	if in.Detector != "SDS/B" || in.Profile != "sdsb" {
		t.Errorf("identity = %q/%q", in.Detector, in.Profile)
	}
	if in.Decisions == 0 || in.LastDecision == nil {
		t.Errorf("no decisions surfaced: %+v", in)
	}
	if in.State == nil {
		t.Error("no detector state snapshot")
	}
	if !in.AlarmActive || len(in.Incidents) == 0 {
		t.Errorf("attack half not alarming: active=%v incidents=%v", in.AlarmActive, in.Incidents)
	}
	st := h.Stats()
	if st.Sessions != 1 || st.SamplesIngested != 200 {
		t.Errorf("stats = %+v", st)
	}
}

func TestErrors(t *testing.T) {
	h := newTestHub(t, DefaultConfig(), fastParams())
	if _, err := h.Ingest("nope", sessionSamples(1, 10)); err == nil {
		t.Error("ingest into unknown session accepted")
	}
	if err := h.Open("vm-1", "nope"); err == nil {
		t.Error("unknown profile accepted")
	}
	if err := h.Open("", "sdsb"); err == nil {
		t.Error("empty session id accepted")
	}
	if err := h.Open("bad/id", "sdsb"); err == nil {
		t.Error("slash in session id accepted")
	}
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-1", "sdsb"); err == nil {
		t.Error("duplicate session accepted")
	}
	if err := h.RegisterProfile("sdsb", sdsbFactory(fastParams())); err == nil {
		t.Error("duplicate profile accepted")
	}
}

// TestStressEquivalence is the acceptance stress test: >= 100k samples
// across >= 32 concurrent sessions, and every session's decision stream
// must be identical to feeding the same samples to the batch detector
// sequentially.
func TestStressEquivalence(t *testing.T) {
	const (
		nSessions = 32
		perSess   = 3200 // 32 * 3200 = 102,400 samples
		batchLen  = 80
	)
	p := core.DefaultParams() // real Table I windows
	cfg := Config{Shards: 4, QueueCap: 512, ShardBuffer: 64, Policy: Block}
	h := NewHub(cfg)
	t.Cleanup(func() { h.Close() })
	var recs recorders
	if err := h.RegisterProfile("sdsb", recs.wrap(sdsbFactory(p))); err != nil {
		t.Fatal(err)
	}

	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = "vm-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := h.Open(ids[i], "sdsb"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			samples := sessionSamples(uint64(i+1), perSess)
			for off := 0; off < len(samples); off += batchLen {
				end := off + batchLen
				if end > len(samples) {
					end = len(samples)
				}
				if _, err := h.Ingest(id, samples[off:end]); err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
			}
		}(i, id)
	}
	wg.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	st := h.Stats()
	if st.SamplesIngested != nSessions*perSess || st.SamplesDropped != 0 {
		t.Fatalf("ingested %d dropped %d", st.SamplesIngested, st.SamplesDropped)
	}

	for i, id := range ids {
		got := recs.all[i].decisions()
		ref, err := core.NewSDSB(testProfile(), p)
		if err != nil {
			t.Fatal(err)
		}
		var want []core.Decision
		for _, s := range sessionSamples(uint64(i+1), perSess) {
			want = append(want, ref.Push(s)...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: streaming decisions diverge from batch (%d vs %d decisions)", id, len(got), len(want))
		}
		// The incremental incident log must equal the batch fold too.
		batchIncs, err := core.Incidents(want)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := h.Session(id)
		if !reflect.DeepEqual(in.Incidents, core.MergeIncidents(batchIncs, h.cfg.MergeGap)) {
			t.Fatalf("%s: incident log diverges", id)
		}
	}
}

func TestDropPolicy(t *testing.T) {
	cfg := Config{Shards: 1, QueueCap: 64, ShardBuffer: 1, Policy: DropNewest}
	h := newTestHub(t, cfg, fastParams())
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
	samples := sessionSamples(3, 2000)
	sent, accepted := 0, 0
	// Frames fit the queue: a bigger one is refused outright, not shed.
	for off := 0; off+40 <= len(samples); off += 40 {
		n, err := h.Ingest("vm-1", samples[off:off+40])
		if err != nil {
			t.Fatal(err)
		}
		sent += 40
		accepted += n
	}
	h.Drain()
	in, _ := h.Session("vm-1")
	if in.Ingested+in.Dropped != uint64(sent) {
		t.Errorf("accounting: ingested %d + dropped %d != sent %d", in.Ingested, in.Dropped, sent)
	}
	if int(in.Ingested) != accepted {
		t.Errorf("accepted %d vs ingested %d", accepted, in.Ingested)
	}
	// A tiny queue with a 1-batch shard buffer must shed something under
	// a 2000-sample burst.
	if in.Dropped == 0 {
		t.Error("expected drops under burst with QueueCap=64")
	}
	if h.Stats().SamplesDropped != in.Dropped {
		t.Error("hub/session drop counters disagree")
	}
}

func TestSubscribe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	h := newTestHub(t, cfg, fastParams())
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
	events, cancel := h.Subscribe(16)
	defer cancel()

	n := 400
	samples := sessionSamples(5, n) // alarm in the attacked second half
	if _, err := h.Ingest("vm-1", samples); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	// Recovery: clean samples again -> alarm clears.
	r := sim.NewRNG(99)
	var clean []pcm.Sample
	for i := 0; i < n; i++ {
		clean = append(clean, pcm.Sample{
			Time:      0.01*float64(n) + 0.01*float64(i+1),
			AccessNum: 100 + r.Float64(),
			MissNum:   10 + r.Float64(),
		})
	}
	if _, err := h.Ingest("vm-1", clean); err != nil {
		t.Fatal(err)
	}
	h.Drain()

	var raised, cleared int
	for done := false; !done; {
		select {
		case ev := <-events:
			if ev.Session != "vm-1" || ev.Detector != "SDS/B" {
				t.Errorf("event = %+v", ev)
			}
			if ev.Raised {
				raised++
			} else {
				cleared++
			}
		default:
			done = true
		}
	}
	if raised == 0 || cleared == 0 {
		t.Errorf("raised=%d cleared=%d, want both > 0", raised, cleared)
	}
}

func TestCloseDrainsAndRefuses(t *testing.T) {
	cfg := Config{Shards: 2, QueueCap: 8192, ShardBuffer: 128, Policy: Block}
	h := NewHub(cfg)
	var recs recorders
	if err := h.RegisterProfile("sdsb", recs.wrap(sdsbFactory(fastParams()))); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
	samples := sessionSamples(7, 1000)
	if _, err := h.Ingest("vm-1", samples); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drained: every queued sample reached the detector.
	ref, _ := core.NewSDSB(testProfile(), fastParams())
	var want []core.Decision
	for _, s := range samples {
		want = append(want, ref.Push(s)...)
	}
	if got := recs.all[0].decisions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions after Close: got %d want %d", len(got), len(want))
	}
	if _, err := h.Ingest("vm-1", samples); err == nil {
		t.Error("ingest accepted after Close")
	}
	if err := h.Open("vm-2", "sdsb"); err == nil {
		t.Error("open accepted after Close")
	}
	if err := h.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestCloseSession(t *testing.T) {
	h := newTestHub(t, DefaultConfig(), fastParams())
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
	if err := h.CloseSession("vm-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Session("vm-1"); ok {
		t.Error("closed session still listed")
	}
	if _, err := h.Ingest("vm-1", sessionSamples(1, 10)); err == nil {
		t.Error("ingest into closed session accepted")
	}
	if err := h.CloseSession("vm-1"); err == nil {
		t.Error("double close accepted")
	}
	// The id can be reused with a fresh pipeline.
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSkipsOutOfOrderDecisions: a producer replaying history does
// not corrupt the session — the backwards decision is counted, kept out
// of the incident log and the alarm state, and folding resumes.
func TestSessionSkipsOutOfOrderDecisions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	h := NewHub(cfg)
	t.Cleanup(func() { h.Close() })
	if err := h.RegisterProfile("raw", func() (core.Detector, error) { return core.NewRawThreshold(0.5) }); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-1", "raw"); err != nil {
		t.Fatal(err)
	}
	// The raw detector decides per sample from the step in AccessNum:
	// t=2 alarms (100 -> 10), t=1 is the replayed sample (its step back
	// up would alarm too), t=3 is steady and clears.
	samples := []pcm.Sample{
		{Time: 0, AccessNum: 100}, {Time: 2, AccessNum: 10},
		{Time: 1, AccessNum: 100}, {Time: 3, AccessNum: 100}, {Time: 4, AccessNum: 100},
	}
	if _, err := h.Ingest("vm-1", samples); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	in, _ := h.Session("vm-1")
	if in.Decisions != 4 || in.OutOfOrder != 1 {
		t.Fatalf("decisions %d, out of order %d; want 4 and 1", in.Decisions, in.OutOfOrder)
	}
	// The episode opened at t=2 closes at t=3; the replayed t=1 decision
	// neither extends it backwards nor opens a second one.
	want := []core.Incident{{Start: 2, End: 3}}
	if !reflect.DeepEqual(in.Incidents, want) || in.AlarmActive || in.AlarmsRaised != 1 {
		t.Errorf("incidents %v active %v raised %d; want %v, false, 1", in.Incidents, in.AlarmActive, in.AlarmsRaised, want)
	}
}

func TestHubMetricsExposition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	h := newTestHub(t, cfg, fastParams())
	reg := metrics.NewRegistry()
	h.RegisterMetrics(reg)
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Ingest("vm-1", sessionSamples(1, 300)); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"memdos_stream_samples_ingested_total 300",
		"memdos_stream_sessions 1",
		"memdos_stream_queue_depth{shard=\"0\"}",
		"# TYPE memdos_stream_decisions_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSubscriberDropAccounting pins the alarm delivery guarantee
// documented in api.go: fan-out never blocks the detection path, events
// beyond a subscriber's buffer are shed, and every shed event is counted
// in SubscriberDropped.
func TestSubscriberDropAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	h := newTestHub(t, cfg, fastParams())

	slow, cancelSlow := h.Subscribe(1) // never consumed: overflows
	defer cancelSlow()
	wide, cancelWide := h.Subscribe(1 << 10) // sized for everything
	defer cancelWide()

	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("vm-%d", i)
		if err := h.Open(id, "sdsb"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Ingest(id, sessionSamples(uint64(i+1), 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	total := len(wide) // every published transition
	st := h.Stats()
	if st.AlarmsRaised < 3 || total < 3 {
		t.Fatalf("expected a raise per session: raised %d, published %d", st.AlarmsRaised, total)
	}
	if len(slow) != 1 {
		t.Fatalf("slow subscriber buffer holds %d events, want 1", len(slow))
	}
	if st.SubscriberDropped != uint64(total-1) {
		t.Errorf("SubscriberDropped = %d, want %d (published %d, buffered 1)",
			st.SubscriberDropped, total-1, total)
	}
	// The slow subscriber cost the sessions nothing.
	for i := 0; i < 3; i++ {
		in, ok := h.Session(fmt.Sprintf("vm-%d", i))
		if !ok || in.Pending != 0 || in.Dropped != 0 {
			t.Errorf("session vm-%d impeded: %+v", i, in)
		}
	}
}

// logObserver appends what the hub tells it to a log it may share with
// other observers, tagged with its name.
type logObserver struct {
	name string
	mu   *sync.Mutex
	log  *[]string
}

func (o logObserver) Observe(session string, t float64, raised bool) error {
	o.mu.Lock()
	*o.log = append(*o.log, fmt.Sprintf("%s %s %v %v", o.name, session, t, raised))
	o.mu.Unlock()
	return nil
}

func (logObserver) Advance(string, float64) {}

func (o logObserver) Forget(session string) {
	o.mu.Lock()
	*o.log = append(*o.log, fmt.Sprintf("%s %s forget", o.name, session))
	o.mu.Unlock()
}

// edgeLog renders a subscriber's events as an observer named name
// would have logged them.
func edgeLog(name string, evs []AlarmEvent) []string {
	var out []string
	for _, ev := range evs {
		out = append(out, fmt.Sprintf("%s %s %v %v", name, ev.Session, ev.Time, ev.Raised))
	}
	return out
}

// TestObserversAreExact pins the other half of the delivery guarantee:
// while a one-slot subscriber sheds, every observer hears every
// transition, in registration order; closing a session makes each one
// forget it; and a removed observer hears nothing more.
func TestObserversAreExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	cfg.Shards = 1 // one fold order, so the expected log is a plain sequence
	h := newTestHub(t, cfg, fastParams())

	slow, cancelSlow := h.Subscribe(1)
	defer cancelSlow()
	wide, cancelWide := h.Subscribe(1 << 10)
	defer cancelWide()
	var mu sync.Mutex
	var log []string
	removeA := h.AddObserver(logObserver{"a", &mu, &log})
	removeB := h.AddObserver(logObserver{"b", &mu, &log})

	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("vm-%d", i)
		if err := h.Open(id, "sdsb"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Ingest(id, sessionSamples(uint64(i+1), 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := h.CloseSession("vm-1"); err != nil {
		t.Fatal(err)
	}

	var want []string
	for len(wide) > 0 {
		ev := <-wide
		for _, name := range []string{"a", "b"} {
			want = append(want, fmt.Sprintf("%s %s %v %v", name, ev.Session, ev.Time, ev.Raised))
		}
	}
	want = append(want, "a vm-1 forget", "b vm-1 forget")
	if len(want) < 8 || h.Stats().SubscriberDropped == 0 || len(slow) != 1 {
		t.Fatalf("no shedding to compare against: %d observer calls, %d dropped", len(want), h.Stats().SubscriberDropped)
	}
	mu.Lock()
	got := append([]string(nil), log...)
	mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observer log:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	removeA()
	removeA() // idempotent
	removeB()
	more := sessionSamples(9, 200)
	for i := range more {
		more[i].Time += 2 // after the first stream, so it folds
	}
	if _, err := h.Ingest("vm-0", more); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(wide) == 0 {
		t.Fatal("second stream raised nothing")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(log) != len(got) {
		t.Errorf("removed observers still called: %v", log[len(got):])
	}
}

// TestObserversUnderConcurrentClose runs four shards at once while half
// the sessions close mid-stream and a second observer comes and goes.
// Per session the recording observer must have heard exactly the edges
// the hub folded (an unshed subscriber's copy) — all of them for a
// session left open, a prefix and then one Forget for a closed one.
func TestObserversUnderConcurrentClose(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	cfg.Shards = 4
	h := newTestHub(t, cfg, fastParams())
	wide, cancel := h.Subscribe(1 << 12)
	defer cancel()
	var mu, churnMu sync.Mutex
	var log, churnLog []string
	h.AddObserver(logObserver{"rec", &mu, &log})

	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("vm-%d", i)
		if err := h.Open(id, "sdsb"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples := sessionSamples(uint64(i+1), 600)
			for j := 0; j < len(samples); j += 20 {
				if _, err := h.Ingest(id, samples[j:j+20]); err != nil {
					if i%2 == 0 {
						t.Errorf("%s: %v", id, err) // never closed
					}
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < sessions; i += 2 {
			remove := h.AddObserver(logObserver{"churn", &churnMu, &churnLog})
			if err := h.CloseSession(fmt.Sprintf("vm-%d", i)); err != nil {
				t.Error(err)
			}
			remove()
		}
	}()
	wg.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	folded := make(map[string][]AlarmEvent)
	for len(wide) > 0 {
		ev := <-wide
		folded[ev.Session] = append(folded[ev.Session], ev)
	}
	heard := make(map[string][]string)
	mu.Lock()
	for _, e := range log {
		id := strings.Fields(e)[1]
		heard[id] = append(heard[id], e)
	}
	mu.Unlock()
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("vm-%d", i)
		want, got := edgeLog("rec", folded[id]), heard[id]
		if i%2 == 1 {
			n := len(got) - 1
			if n < 0 || got[n] != "rec "+id+" forget" {
				t.Errorf("%s: closed, but its last observer call is not Forget: %v", id, got)
				continue
			}
			want, got = want[:min(n, len(want))], got[:n]
		} else if len(want) == 0 {
			t.Errorf("%s: no alarm edges to compare", id)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: observer heard %v, hub folded %v", id, got, want)
		}
	}
}

// TestIngestCopiesBatch: Hub.Ingest's contract says the caller may
// reuse its slice immediately. With the pooled submit path the copy
// happens into a recycled buffer — corrupting the caller's slice right
// after Ingest must not corrupt what the detector sees.
func TestIngestCopiesBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	h := NewHub(cfg)
	defer h.Close()
	var recs recorders
	if err := h.RegisterProfile("raw", recs.wrap(func() (core.Detector, error) {
		return core.NewRawThreshold(0.5)
	})); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-1", "raw"); err != nil {
		t.Fatal(err)
	}

	batch := make([]pcm.Sample, 64)
	for round := 0; round < 50; round++ {
		for i := range batch {
			batch[i] = pcm.Sample{
				Time:      float64(round*len(batch)+i+1) * 0.01,
				AccessNum: 100,
				MissNum:   10,
			}
		}
		if _, err := h.Ingest("vm-1", batch); err != nil {
			t.Fatal(err)
		}
		// Stomp the caller's slice while the batch may still be queued.
		for i := range batch {
			batch[i] = pcm.Sample{Time: -1, AccessNum: 1e12, MissNum: 1e12}
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	decisions := recs.all[0].decisions()
	// RawThreshold emits no decision for its very first sample (it needs
	// a predecessor), so a contiguous stream yields samples-1 decisions.
	if len(decisions) != 50*64-1 {
		t.Fatalf("%d decisions, want %d", len(decisions), 50*64-1)
	}
	for i, d := range decisions {
		// The stomped values would flip the raw-threshold detector's
		// miss ratio to 1.0 and alarm; the real batch never alarms.
		if d.Alarm {
			t.Fatalf("decision %d alarmed: detector saw the stomped batch", i)
		}
		if want := float64(i+2) * 0.01; d.Time != want {
			t.Fatalf("decision %d at t=%v, want %v", i, d.Time, want)
		}
	}
}
