// Package stream turns the batch detectors of internal/core into an
// always-on, multi-tenant detection service: the serving layer a
// hypervisor would run, with one detection session per protected VM.
//
// A Hub manages many named sessions. Each session owns its own detector
// pipeline (any core.Detector, built from a registered profile) and is
// pinned to one worker shard by a hash of its name, so every detector has
// exactly one writer goroutine and needs no locking on the hot path.
// Producers hand the hub frames — one session's sample batch each — many
// at a time through IngestFrames, which sends each shard one hand-off
// carrying all of the call's frames for its sessions, so the hub's
// per-call costs (lock, WaitGroup, channel send, shard wake) are paid per
// hand-off, not per frame; Ingest is the one-frame case. Bounded
// per-session queues with an explicit policy (shed load or block) keep a
// slow detector from taking the hub down. Each session folds its
// decisions into a core.IncidentFold, which is where its alarm edges come
// from: the hub keeps no alarm state of its own. An edge goes to
// observers, which the shard calls in order and never sheds
// (AddObserver), and to best-effort subscriber channels (Subscribe).
//
// Ordering: samples of one session are processed in the order the hub
// accepted them, within a call and across calls. With several concurrent
// producers for the *same* session, the inter-call order is whichever
// producer hands over first — one producer per session (one VM, one PCM
// stream) is the intended shape, matching the paper's threat model.
package stream

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memdos/internal/core"
	"memdos/internal/metrics"
	"memdos/internal/pcm"
)

// Policy selects what the hub does with a frame when its session's queue
// is full, or, under DropNewest, when its shard's work channel is. Either
// policy refuses a frame of more than QueueCap samples with a per-frame
// error and counts it dropped: Block never waits for room that can't come.
type Policy int

const (
	// DropNewest sheds load: the incoming frame is dropped and counted,
	// and so is a whole hand-off to a shard whose work channel is full.
	// This is the deploy-default — a detection service must never stall
	// the hypervisor's sampling loop.
	DropNewest Policy = iota
	// Block applies backpressure: the call waits until the queue has
	// room (or the hub closes). Use for offline replay and tests that must
	// not lose samples.
	Block
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case DropNewest:
		return "drop"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config sizes a Hub.
type Config struct {
	// Shards is the number of worker goroutines. Sessions are pinned to
	// shards by name hash. <= 0 means one shard per CPU.
	Shards int
	// QueueCap bounds each session's pending (accepted, not yet
	// processed) samples. <= 0 means 4096. The cap is approximate when
	// several producers ingest one session concurrently.
	QueueCap int
	// ShardBuffer is each shard's work-channel capacity in hand-offs (an
	// Ingest call is one; an IngestFrames call is one per shard it
	// reaches, more under Block when it must wait). <= 0 means 256.
	ShardBuffer int
	// Policy is the full-queue behaviour.
	Policy Policy
	// MergeGap joins incident episodes separated by at most this many
	// seconds in session views (core.MergeIncidents); 0 merges only
	// touching episodes.
	MergeGap float64
}

// DefaultConfig returns the deploy-default hub sizing.
func DefaultConfig() Config {
	return Config{QueueCap: 4096, ShardBuffer: 256, Policy: DropNewest, MergeGap: 2}
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = numShards()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.ShardBuffer <= 0 {
		c.ShardBuffer = 256
	}
	return c
}

// DetectorFactory builds one session's detector pipeline. It is called
// once per session so every session gets private state.
type DetectorFactory func() (core.Detector, error)

// work is one unit handed to a shard: either a hand-off of sample
// segments, or a flush barrier.
type work struct {
	batch *batchBuf
	flush chan<- struct{}
}

// batchBuf is one hand-off to a shard: a run of segments, each one
// frame's samples for one session, laid end to end in samples.
// IngestFrames copies the callers' samples into one of these (recycled
// through Hub.batchPool) and the shard goroutine returns it to the pool
// after processing, so the steady-state ingest path creates no per-frame
// garbage.
type batchBuf struct {
	samples []pcm.Sample
	segs    []segment
	// seg0 backs segs until a hand-off carries a second frame, so a
	// fresh one-frame buffer costs Ingest no allocation beyond the copy.
	seg0 [1]segment
}

// segment is one frame's share of a batchBuf: n samples of sess. frame
// is the frame's index in the IngestFrames call, for the caller's side
// to settle a shed hand-off; the shard ignores it.
type segment struct {
	sess  *Session
	n     int
	frame int
}

// maxPooledBatch bounds the capacity a recycled buffer may keep, in
// samples and in segments: one oversized hand-off must not pin megabytes
// in the pool forever.
const maxPooledBatch = 1 << 14

// shard is one worker goroutine plus its queue and counters.
type shard struct {
	id        int
	work      chan work
	done      chan struct{}
	pending   atomic.Int64 // samples accepted but not yet processed
	busyNanos atomic.Int64
	batches   atomic.Int64
}

// Hub is the multi-tenant streaming detection service.
type Hub struct {
	cfg    Config
	shards []*shard

	mu sync.RWMutex
	// profiles maps profile name to factory. guarded by mu.
	profiles map[string]DetectorFactory
	// sessions maps session ID to live session. guarded by mu.
	sessions map[string]*Session
	// closed marks the hub shut down. guarded by mu.
	closed   bool
	closing  atomic.Bool // readable without mu, for cond waiters
	ingestWG sync.WaitGroup

	// batchPool recycles batchBuf copies between IngestFrames and the
	// shard goroutines, and handoffs the scratch of many-frame calls
	// (sync.Pool: safe without mu).
	batchPool sync.Pool
	handoffs  sync.Pool

	// scorer is the batched cascade scoring service, nil until
	// AttachScorer. Atomic so the shard hot path reads it without mu.
	scorer atomic.Pointer[hubScorer]

	samplesIngested   metrics.Counter
	samplesDropped    metrics.Counter
	decisionsTotal    metrics.Counter
	alarmsRaised      metrics.Counter
	subscriberDropped metrics.Counter

	subMu sync.Mutex
	// subs holds alarm subscriber channels. guarded by subMu.
	subs map[int]chan AlarmEvent
	// observers are called in registration order. guarded by subMu.
	observers []observer
	// nextSub is the next subscriber or observer id. guarded by subMu.
	nextSub int
}

// observer is one AddObserver registration.
type observer struct {
	id int
	o  AlarmObserver
}

// NewHub starts the worker shards and returns the hub.
func NewHub(cfg Config) *Hub {
	cfg = cfg.withDefaults()
	h := &Hub{
		cfg:      cfg,
		profiles: make(map[string]DetectorFactory),
		sessions: make(map[string]*Session),
		subs:     make(map[int]chan AlarmEvent),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{id: i, work: make(chan work, cfg.ShardBuffer), done: make(chan struct{})}
		h.shards = append(h.shards, sh)
		go h.runShard(sh)
	}
	return h
}

// ErrClosed is returned by operations on a closed hub.
var ErrClosed = fmt.Errorf("stream: hub closed")

// ErrSessionOpen is Open's error for an id that has a session, and
// Ensure's for one open under another profile.
var ErrSessionOpen = fmt.Errorf("stream: session already open")

// RegisterProfile makes a named detector pipeline available to sessions.
func (h *Hub) RegisterProfile(name string, f DetectorFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("stream: profile needs a name and a factory")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	if _, dup := h.profiles[name]; dup {
		return fmt.Errorf("stream: profile %q already registered", name)
	}
	h.profiles[name] = f
	return nil
}

// Profiles lists the registered profile names, sorted.
func (h *Hub) Profiles() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.profiles))
	for name := range h.profiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Open creates a session for one protected VM, building its private
// detector pipeline from the named profile.
func (h *Hub) Open(sessionID, profile string) error {
	return h.open(sessionID, profile, false)
}

// Ensure is Open for a producer's first contact: a session already open
// with the same profile is fine, one open with another profile is an
// ErrSessionOpen, so no producer feeds a detector it did not ask for.
// The already-open case takes only the read lock.
func (h *Hub) Ensure(sessionID, profile string) error {
	h.mu.RLock()
	s := h.sessions[sessionID]
	h.mu.RUnlock()
	if s != nil && s.profile == profile {
		return nil
	}
	return h.open(sessionID, profile, true)
}

// open is Open's and Ensure's one body.
func (h *Hub) open(sessionID, profile string, ensure bool) error {
	if err := pcm.ValidSessionID(sessionID); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	if s, dup := h.sessions[sessionID]; dup {
		if ensure && s.profile == profile {
			return nil
		}
		return fmt.Errorf("%w: %q has profile %q", ErrSessionOpen, sessionID, s.profile)
	}
	f, ok := h.profiles[profile]
	if !ok {
		return fmt.Errorf("stream: unknown profile %q", profile)
	}
	det, err := f()
	if err != nil {
		return fmt.Errorf("stream: profile %q: %w", profile, err)
	}
	s := newSession(h, sessionID, profile, det, h.shardFor(sessionID))
	h.sessions[sessionID] = s
	return nil
}

// CloseSession removes the session from the hub. Samples already
// accepted are still processed, but no observer hears of them; every
// observer forgets the session before CloseSession returns. Further
// Ingest calls for the id fail.
func (h *Hub) CloseSession(sessionID string) error {
	h.mu.Lock()
	s, ok := h.sessions[sessionID]
	if ok {
		delete(h.sessions, sessionID)
	}
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("stream: no session %q", sessionID)
	}
	s.remove()
	return nil
}

// Ingest hands a batch of one session's PCM samples to its shard: the
// one-frame case of IngestFrames. It returns how many samples were
// accepted (all or none, per the queue policy). The batch is copied; the
// caller may reuse the slice.
//
//memdos:hotpath
func (h *Hub) Ingest(sessionID string, samples []pcm.Sample) (int, error) {
	if len(samples) == 0 {
		return 0, nil
	}
	var res [1]FrameResult
	if err := h.IngestFrames([]Frame{{Session: sessionID, Samples: samples}}, res[:]); err != nil {
		return 0, err
	}
	return res[0].Accepted, res[0].Err
}

// Frame is one session's batch in an IngestFrames call.
type Frame struct {
	Session string
	Samples []pcm.Sample
}

// FrameResult is what IngestFrames did with one frame: how many of its
// samples were accepted (all or none, per the queue policy; a shed frame
// is 0 with no error), or why it was refused.
type FrameResult struct {
	Accepted int
	Err      error
}

// IngestFrames hands many frames, of any sessions, to their shards at
// once: each shard receives one hand-off carrying all of the call's
// frames for its sessions, in call order. res[i] reports on frames[i];
// res must be at least as long as frames. Every accepted sample is
// copied before IngestFrames returns, so the caller may reuse the
// slices. The one error returned is ErrClosed, when the hub closes
// before or during the call: the frames it had not accepted by then
// carry ErrClosed too.
//
// Samples of one session keep their order. Under Block, a frame that
// must wait for its session's queue first sends everything the call has
// gathered, so a call carrying more than QueueCap of one session waits
// on the shard, never on itself. Under DropNewest, a shard whose work
// channel is full sheds the call's whole hand-off to it; each of its
// frames then counts as dropped against its own session.
//
//memdos:hotpath
func (h *Hub) IngestFrames(frames []Frame, res []FrameResult) error {
	res = res[:len(frames)]
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		for i := range res {
			res[i] = FrameResult{Err: ErrClosed}
		}
		return ErrClosed
	}
	// A one-frame call gathers into one slot on the stack and needs no
	// pooled scratch.
	var one struct {
		sess [1]*Session
		buf  [1]*batchBuf
	}
	g := &handoff{sess: one.sess[:], bufs: one.buf[:]}
	var pooled *handoff
	if len(frames) != 1 {
		pooled = h.getHandoff(len(frames))
		g = pooled
	}
	for i := range frames {
		g.sess[i] = h.sessions[frames[i].Session]
	}
	h.ingestWG.Add(1)
	h.mu.RUnlock()
	err := h.gather(frames, res, g)
	h.ingestWG.Done()
	if pooled != nil {
		h.putHandoff(pooled)
	}
	return err
}

// handoff is one IngestFrames call's scratch: the session each frame
// resolved to (nil for an unknown id) and, per shard slot, the buffer
// gathering that shard's accepted samples.
type handoff struct {
	sess []*Session
	bufs []*batchBuf
}

// slot is where the call gathers sh's samples: the shard's own slot in a
// many-frame call, the only slot in a one-frame call.
func (g *handoff) slot(sh *shard) **batchBuf {
	if len(g.bufs) == 1 {
		return &g.bufs[0]
	}
	return &g.bufs[sh.id]
}

// holding reports whether the call has gathered samples it has not sent.
func (g *handoff) holding() bool {
	for _, b := range g.bufs {
		if b != nil {
			return true
		}
	}
	return false
}

// getHandoff returns pooled scratch for an n-frame call.
func (h *Hub) getHandoff(n int) *handoff {
	g, _ := h.handoffs.Get().(*handoff)
	if g == nil {
		g = &handoff{bufs: make([]*batchBuf, len(h.shards))}
	}
	g.sess = slices.Grow(g.sess[:0], n)[:n]
	return g
}

// putHandoff recycles a many-frame call's scratch, holding no session.
func (h *Hub) putHandoff(g *handoff) {
	clear(g.sess)
	if cap(g.sess) <= maxPooledBatch {
		h.handoffs.Put(g)
	}
}

// gather applies the queue policy to each frame in order, copies the
// accepted ones into their shards' buffers, sends every buffer, and
// counts what was accepted.
func (h *Hub) gather(frames []Frame, res []FrameResult, g *handoff) error {
	cap64 := int64(h.cfg.QueueCap)
	var err error
	for i := range frames {
		res[i] = FrameResult{}
		s, n := g.sess[i], int64(len(frames[i].Samples))
		switch {
		case n == 0:
			continue
		case s == nil:
			res[i].Err = fmt.Errorf("stream: no session %q", frames[i].Session)
			continue
		case n > cap64:
			s.drop(n)
			res[i].Err = fmt.Errorf("stream: frame of %d samples exceeds the queue capacity %d", n, cap64)
			continue
		}
		if h.cfg.Policy == Block {
			s.qmu.Lock()
			for s.pending.Load()+n > cap64 && !h.closing.Load() && !s.removed.Load() {
				if g.holding() {
					// Never wait holding unsent samples: they may be what
					// the queue is waiting to drain.
					s.qmu.Unlock()
					h.sendAll(g, res)
					s.qmu.Lock()
					continue
				}
				s.cond.Wait()
			}
			if h.closing.Load() {
				s.qmu.Unlock()
				for j := i; j < len(frames); j++ {
					res[j] = FrameResult{Err: ErrClosed}
				}
				err = ErrClosed
				frames = frames[:i]
				break
			}
			if s.removed.Load() {
				s.qmu.Unlock()
				res[i].Err = errRemoved(s.id)
				continue
			}
			s.pending.Add(n)
			s.qmu.Unlock()
		} else {
			if s.pending.Load()+n > cap64 {
				s.drop(n)
				continue
			}
			s.pending.Add(n)
		}
		slot := g.slot(s.shard)
		b := *slot
		if b == nil {
			b = h.getBatch()
			*slot = b
		}
		b.samples = append(b.samples, frames[i].Samples...)
		b.segs = append(b.segs, segment{sess: s, n: int(n), frame: i})
		res[i].Accepted = int(n)
	}
	h.sendAll(g, res)
	var total uint64
	for i := range frames {
		if a := uint64(res[i].Accepted); a > 0 {
			g.sess[i].ingested.Add(a)
			total += a
		}
	}
	h.samplesIngested.Add(total)
	return err
}

// sendAll hands every gathered buffer to its shard. Under DropNewest a
// full work channel sheds the buffer: its frames are dropped and their
// results zeroed.
func (h *Hub) sendAll(g *handoff, res []FrameResult) {
	for k, b := range g.bufs {
		if b == nil {
			continue
		}
		g.bufs[k] = nil
		sh := b.segs[0].sess.shard
		n := int64(len(b.samples))
		sh.pending.Add(n)
		if h.cfg.Policy == Block {
			sh.work <- work{batch: b}
			continue
		}
		select {
		case sh.work <- work{batch: b}:
		default:
			sh.pending.Add(-n)
			for _, seg := range b.segs {
				seg.sess.pending.Add(-int64(seg.n))
				seg.sess.drop(int64(seg.n))
				res[seg.frame].Accepted = 0
			}
			h.putBatch(b)
		}
	}
}

// Drain blocks until every sample accepted before the call has been
// processed. Concurrent producers may enqueue more; Drain is a barrier,
// not a freeze.
func (h *Hub) Drain() error {
	h.mu.RLock()
	if h.closed {
		h.mu.RUnlock()
		return ErrClosed
	}
	h.ingestWG.Add(1)
	h.mu.RUnlock()
	defer h.ingestWG.Done()

	acks := make(chan struct{}, len(h.shards))
	for _, sh := range h.shards {
		sh.work <- work{flush: acks} //memdos:ignore golife shard workers outlive every Drain: Close waits on ingestWG (which this call holds) before closing work channels
	}
	for range h.shards {
		<-acks
	}
	// With the shards quiesced, flush the scoring pipeline too: every
	// window emitted by the processed samples is scored before Drain
	// returns. ingestWG (held above) keeps Close from closing the queues
	// under these sends.
	if sc := h.scorer.Load(); sc != nil {
		sc.flushScorer()
	}
	return nil
}

// Close shuts the hub down gracefully: new ingests are refused, queued
// samples drain through the detectors (their transitions still reach
// observers), and subscriber channels close. Sessions stay inspectable;
// an incident still open at Close stays flagged Open — truthfully "still
// alarming when the stream ended". Close is idempotent.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.closing.Store(true)
	sessions := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()

	// Wake Block-policy waiters so in-flight ingests can fail fast.
	for _, s := range sessions {
		s.wake()
	}
	h.ingestWG.Wait()
	for _, sh := range h.shards {
		close(sh.work) // the range loop drains buffered batches first
	}
	for _, sh := range h.shards {
		<-sh.done
	}
	// Shards have exited, so no goroutine can enqueue more windows: drain
	// the scoring pipeline, so final verdicts land in the session views.
	if sc := h.scorer.Load(); sc != nil {
		sc.closeScorer()
	}
	h.subMu.Lock()
	for id, ch := range h.subs {
		close(ch)
		delete(h.subs, id)
	}
	h.subMu.Unlock()
	return nil
}

// getBatch returns an empty pooled buffer.
func (h *Hub) getBatch() *batchBuf {
	b, _ := h.batchPool.Get().(*batchBuf)
	if b == nil {
		b = new(batchBuf)
		b.segs = b.seg0[:0]
	}
	return b
}

// putBatch recycles a processed buffer, holding no session, and drops
// outliers so one giant hand-off cannot pin its capacity in the pool.
func (h *Hub) putBatch(b *batchBuf) {
	clear(b.segs)
	b.samples, b.segs = b.samples[:0], b.segs[:0]
	if cap(b.samples) > maxPooledBatch || cap(b.segs) > maxPooledBatch {
		return
	}
	h.batchPool.Put(b)
}

// runShard is the single writer for every session pinned to sh. It runs
// each hand-off's segments in order, finishing each before the next.
func (h *Hub) runShard(sh *shard) {
	defer close(sh.done)
	for w := range sh.work {
		if w.flush != nil {
			w.flush <- struct{}{}
			continue
		}
		b := w.batch
		start := time.Now()
		off := 0
		for _, seg := range b.segs {
			seg.sess.process(b.samples[off : off+seg.n])
			off += seg.n
			n := int64(seg.n)
			sh.pending.Add(-n)
			seg.sess.finishBatch(n)
		}
		sh.busyNanos.Add(time.Since(start).Nanoseconds())
		sh.batches.Add(int64(len(b.segs)))
		h.putBatch(b)
	}
}

// shardFor pins a session name to a shard with FNV-1a.
func (h *Hub) shardFor(id string) *shard {
	hash := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		hash = (hash ^ uint32(id[i])) * 16777619
	}
	return h.shards[int(hash%uint32(len(h.shards)))]
}

// Session returns a point-in-time view of one session.
func (h *Hub) Session(sessionID string) (SessionInfo, bool) {
	h.mu.RLock()
	s, ok := h.sessions[sessionID]
	h.mu.RUnlock()
	if !ok {
		return SessionInfo{}, false
	}
	return s.info(), true
}

// Sessions returns a view of every open session, sorted by id.
func (h *Hub) Sessions() []SessionInfo {
	h.mu.RLock()
	sessions := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.RUnlock()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AlarmObserver hears every alarm transition of every session exactly,
// in order per session: the shard that folds the transition calls
// Observe and waits for it, and calls Advance with every other in-order
// decision's time. When a session closes the hub calls Forget, and no
// batch still queued for the closed session reaches the observer after
// that. *respond.Engine is one.
//
// All three methods run with hub locks held, so an observer must not call
// back into the hub. A slow observer stalls the shard that calls it, and
// any other shard calling an observer meanwhile waits behind it.
type AlarmObserver interface {
	Observe(session string, t float64, raised bool) error
	Advance(session string, t float64)
	Forget(session string)
}

// AddObserver registers o after every observer already registered.
// remove unregisters it; once remove has returned, the hub calls o no
// more. remove may be called more than once.
func (h *Hub) AddObserver(o AlarmObserver) (remove func()) {
	h.subMu.Lock()
	id := h.nextSub
	h.nextSub++
	h.observers = append(h.observers, observer{id: id, o: o})
	h.subMu.Unlock()
	return func() {
		h.subMu.Lock()
		h.observers = slices.DeleteFunc(h.observers, func(ob observer) bool { return ob.id == id })
		h.subMu.Unlock()
	}
}

// forget tells every observer that a session has closed.
func (h *Hub) forget(sessionID string) {
	h.subMu.Lock()
	defer h.subMu.Unlock()
	for _, ob := range h.observers {
		ob.o.Forget(sessionID)
	}
}

// Subscribe registers an alarm listener. Events are delivered best-effort:
// when the buffer is full the event is counted as dropped, never blocking
// a shard. cancel unsubscribes; the channel closes on cancel or hub Close.
func (h *Hub) Subscribe(buffer int) (<-chan AlarmEvent, func()) {
	if buffer <= 0 {
		buffer = 16
	}
	ch := make(chan AlarmEvent, buffer)
	h.subMu.Lock()
	if h.closing.Load() {
		h.subMu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := h.nextSub
	h.nextSub++
	h.subs[id] = ch
	h.subMu.Unlock()
	cancel := func() {
		h.subMu.Lock()
		if c, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(c)
		}
		h.subMu.Unlock()
	}
	return ch, cancel
}

// deliver hands on one in-order decision of session s. An edge, as its
// incident fold reported it, is counted and offered to every subscriber
// without blocking; while s is open, every observer then gets an edge's
// Observe or any other decision's Advance, in registration order.
func (h *Hub) deliver(s *Session, d core.Decision, edge bool) {
	h.subMu.Lock()
	defer h.subMu.Unlock()
	if edge {
		if d.Alarm {
			h.alarmsRaised.Inc()
		}
		ev := AlarmEvent{Session: s.id, Detector: s.det.Name(), Time: d.Time, Raised: d.Alarm}
		for _, ch := range h.subs {
			select {
			case ch <- ev:
			default:
				h.subscriberDropped.Inc()
			}
		}
	}
	if s.removed.Load() {
		return
	}
	for _, ob := range h.observers {
		if !edge {
			ob.o.Advance(s.id, d.Time)
		} else {
			// The hub has nothing to retry and delivers the next edge
			// regardless; the engine's one error, a bad session name,
			// cannot arise from an id the hub accepted.
			_ = ob.o.Observe(s.id, d.Time, d.Alarm)
		}
	}
}

// HubStats is a programmatic snapshot of the hub counters.
type HubStats struct {
	Sessions          int
	SamplesIngested   uint64
	SamplesDropped    uint64
	Decisions         uint64
	AlarmsRaised      uint64
	SubscriberDropped uint64
	QueueDepth        int64
}

// Stats snapshots the hub counters.
func (h *Hub) Stats() HubStats {
	h.mu.RLock()
	n := len(h.sessions)
	h.mu.RUnlock()
	var depth int64
	for _, sh := range h.shards {
		depth += sh.pending.Load()
	}
	return HubStats{
		Sessions:          n,
		SamplesIngested:   h.samplesIngested.Value(),
		SamplesDropped:    h.samplesDropped.Value(),
		Decisions:         h.decisionsTotal.Value(),
		AlarmsRaised:      h.alarmsRaised.Value(),
		SubscriberDropped: h.subscriberDropped.Value(),
		QueueDepth:        depth,
	}
}

// RegisterMetrics exposes the hub counters, per-shard queue depths and
// per-shard busy time on a metrics registry (the /metrics endpoint).
func (h *Hub) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("memdos_stream_samples_ingested_total",
		"PCM samples accepted by Ingest.", &h.samplesIngested)
	reg.RegisterCounter("memdos_stream_samples_dropped_total",
		"PCM samples shed by the queue policy.", &h.samplesDropped)
	reg.RegisterCounter("memdos_stream_decisions_total",
		"Detector decisions produced.", &h.decisionsTotal)
	reg.RegisterCounter("memdos_stream_alarms_raised_total",
		"Alarm raise transitions across all sessions.", &h.alarmsRaised)
	reg.RegisterCounter("memdos_stream_subscriber_dropped_total",
		"Alarm events dropped on full subscriber buffers.", &h.subscriberDropped)
	reg.RegisterGaugeFunc("memdos_stream_sessions",
		"Open detection sessions.", func() []metrics.Point {
			h.mu.RLock()
			n := len(h.sessions)
			h.mu.RUnlock()
			return []metrics.Point{{Value: float64(n)}}
		})
	reg.RegisterGaugeFunc("memdos_stream_queue_depth",
		"Samples accepted but not yet processed, per shard.", func() []metrics.Point {
			pts := make([]metrics.Point, len(h.shards))
			for i, sh := range h.shards {
				pts[i] = metrics.Point{Labels: fmt.Sprintf("shard=%q", fmt.Sprint(sh.id)), Value: float64(sh.pending.Load())}
			}
			return pts
		})
	reg.RegisterCounterFunc("memdos_stream_shard_busy_seconds_total",
		"Detector processing time, per shard.", func() []metrics.Point {
			pts := make([]metrics.Point, len(h.shards))
			for i, sh := range h.shards {
				pts[i] = metrics.Point{Labels: fmt.Sprintf("shard=%q", fmt.Sprint(sh.id)), Value: float64(sh.busyNanos.Load()) / 1e9}
			}
			return pts
		})
	reg.RegisterCounterFunc("memdos_stream_shard_batches_total",
		"Sample batches (ingested frames) processed, per shard.", func() []metrics.Point {
			pts := make([]metrics.Point, len(h.shards))
			for i, sh := range h.shards {
				pts[i] = metrics.Point{Labels: fmt.Sprintf("shard=%q", fmt.Sprint(sh.id)), Value: float64(sh.batches.Load())}
			}
			return pts
		})
	// Scoring-service metrics. Registered unconditionally (the registry
	// snapshot must not depend on wiring order); they read zero until a
	// scorer is attached.
	scorerPoint := func(get func(ScorerStats) float64) func() []metrics.Point {
		return func() []metrics.Point {
			sc := h.scorer.Load()
			if sc == nil {
				return nil
			}
			return []metrics.Point{{Value: get(sc.stats())}}
		}
	}
	reg.RegisterCounterFunc("memdos_dnn_windows_scored_total",
		"Session windows classified by the batched cascade scorer.",
		scorerPoint(func(st ScorerStats) float64 { return float64(st.WindowsScored) }))
	reg.RegisterCounterFunc("memdos_dnn_windows_continued_total",
		"Scored windows computed from the session's carried rows in both cascade stages, not in full.",
		scorerPoint(func(st ScorerStats) float64 { return float64(st.WindowsContinued) }))
	reg.RegisterCounterFunc("memdos_dnn_windows_dropped_total",
		"Session windows shed on a full scoring queue.",
		scorerPoint(func(st ScorerStats) float64 { return float64(st.WindowsDropped) }))
	reg.RegisterCounterFunc("memdos_dnn_batches_total",
		"Fused scorer calls (windows_scored_total/batches_total is the mean batch fill).",
		scorerPoint(func(st ScorerStats) float64 { return float64(st.BatchesScored) }))
	reg.RegisterCounterFunc("memdos_dnn_score_seconds_total",
		"Time spent inside the fused batch kernel, summed over scoring workers.",
		scorerPoint(func(st ScorerStats) float64 { return st.ScoreSeconds }))
	reg.RegisterGaugeFunc("memdos_dnn_queue_depth",
		"Windows waiting to be batched for scoring, over all workers' queues.",
		scorerPoint(func(st ScorerStats) float64 { return float64(st.QueueDepth) }))
	reg.RegisterGaugeFunc("memdos_dnn_carry_bytes",
		"Memory the open sessions' sliding-window carries hold.",
		scorerPoint(func(ScorerStats) float64 { return float64(h.carryBytes()) }))
}
