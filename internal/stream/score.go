package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"memdos/internal/core"
	"memdos/internal/pcm"
)

// The scoring service: batched cascade inference over live session
// windows.
//
// Shard goroutines assemble each session's counter samples into sliding
// [window][2] matrices (access count, miss count — the cascade's input
// channels). A completed window enters the bounded queue of its shard's
// scoring worker; an overflowing window is dropped and counted, never
// blocking a shard. A SlidingScorer gets one worker per shard, the first
// scoring through it and the others through forks of it; any other
// scorer gets one worker. A session's windows thus reach one worker, in
// order, and its carry has one toucher. Each worker drains its queue
// through its own reusable batch buffer: stage what is queued, run the
// fused batch kernel, write the verdicts back. Staging a window is one
// copy of it (3.2 KB at W=200) against tens of microseconds of scoring,
// so there is nothing worth overlapping within a worker. Verdicts land
// on the sessions and surface in SessionInfo (and the /v1/sessions API)
// next to the detector state.

// WindowScorer is the batched inference engine the hub drives: one call
// classifies n windows, given row-major [n][window][2] counter values.
// internal/dnn's BatchScorer satisfies this shape via a thin adapter in
// the daemon. The interface is a seam: tests and e2ebench's no-op scorer
// plug in here without compiling a cascade.
type WindowScorer interface {
	// Window is the window length the scorer was compiled for.
	Window() int
	// ScoreFlat fills apps[i] and attacks[i] with the cascade verdict of
	// window i. len(flat) == n*Window()*2; apps and attacks have length n.
	ScoreFlat(n int, flat []float64, apps, attacks []int)
}

// SlidingScorer is the optional capability of a WindowScorer that can
// reuse work between one session's overlapping windows. The hub finds it
// by type assertion and then scores through ScoreCarried alone, on one
// worker per shard.
type SlidingScorer interface {
	// Fork returns another scorer for another worker: same verdicts, but
	// nothing it writes while scoring is shared with the receiver, so the
	// two may score at once. The hub forks once per shard past the first,
	// at attach.
	Fork() SlidingScorer
	// NewCarry returns the state one session keeps between windows that
	// start stride samples apart. The hub asks for it at the session's
	// first scored window and hands it back with every later one.
	NewCarry(stride int) SessionCarry
	// ScoreCarried is ScoreFlat with each window's session state: window i
	// is the ord[i]-th window its session has emitted (from 1; a gap means
	// the windows between were shed), carry[i] that session's carry. A
	// session's windows arrive in order; one session may own several
	// windows of a call. Verdicts equal ScoreFlat's. Returns how many
	// windows were scored from carried state rather than in full.
	ScoreCarried(n int, flat []float64, carry []SessionCarry, ord []uint64, apps, attacks []int) int
}

// SessionCarry is a SlidingScorer's per-session state: opaque to the hub
// but for its size.
type SessionCarry interface {
	// Bytes is how much memory the carry holds.
	Bytes() int
}

// AttackNamer optionally maps attack-class indices to stable names for
// API responses. Implemented by the daemon's scorer adapter. Every
// scoring worker calls the attached scorer's AttackName, concurrently.
type AttackNamer interface {
	AttackName(class int) string
}

// CascadeVerdict is the most recent batched-inference result for one
// session.
type CascadeVerdict struct {
	// App is the application-identification stage's class index.
	App int `json:"app"`
	// AttackClass is the attack-classification stage's class index.
	AttackClass int `json:"attackClass"`
	// Attack is AttackClass's name when the scorer can name it.
	Attack string `json:"attack,omitempty"`
	// Time is the timestamp of the scored window's last sample.
	Time float64 `json:"t"`
	// Windows counts how many of this session's windows have been scored.
	Windows uint64 `json:"windows"`
}

// scoreBatch is the largest number of windows fused into one scorer call.
const scoreBatch = 64

// ScorerConfig sizes the scoring service.
type ScorerConfig struct {
	// Stride is how many samples advance between a session's windows.
	// <= 0 means the paper's ΔW (core.DefaultParams().DW), clipped to the window.
	Stride int
	// QueueCap bounds windows waiting to be batched, per worker. <= 0
	// means 1024.
	QueueCap int
}

func (c ScorerConfig) withDefaults(window int) (ScorerConfig, error) {
	if c.Stride <= 0 {
		c.Stride = min(core.DefaultParams().DW, window)
	}
	if c.Stride > window {
		return c, fmt.Errorf("stream: scorer stride %d exceeds window %d", c.Stride, window)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return c, nil
}

// scoreItem is one queue entry: a completed window, or a flush barrier.
type scoreItem struct {
	sess  *Session
	buf   *[]float64 // pooled [window*2] copy
	ord   uint64     // the window's ordinal in its session, from 1
	t     float64    // last sample's timestamp
	flush chan<- struct{}
}

// hubScorer runs the scoring service for one hub.
type hubScorer struct {
	ws     WindowScorer // the attached scorer; ScoreFlat's only caller is the one worker
	namer  AttackNamer  // nil when ws names no classes
	window int
	stride int

	bufPool sync.Pool // *[]float64 window copies
	workers []*scoreWorker
}

// scoreWorker is one scoring goroutine: its queue, its counters, and the
// scorer it calls (nil slider: ws.ScoreFlat).
type scoreWorker struct {
	sc     *hubScorer
	slider SlidingScorer
	queue  chan scoreItem
	done   chan struct{} // the goroutine exited

	queueLen         atomic.Int64
	windowsScored    atomic.Uint64
	windowsContinued atomic.Uint64
	windowsDropped   atomic.Uint64
	batchesScored    atomic.Uint64
	scoreNanos       atomic.Int64
}

// AttachScorer starts the batched scoring service on the hub. At most
// one scorer can be attached, before or after sessions open; windows
// only accumulate from samples ingested after the attach. A
// SlidingScorer scores on one worker per shard (the first worker calls
// ws, the others forks of it), any other WindowScorer on one.
func (h *Hub) AttachScorer(ws WindowScorer, cfg ScorerConfig) error {
	if ws == nil {
		return fmt.Errorf("stream: nil scorer")
	}
	w := ws.Window()
	if w <= 0 {
		return fmt.Errorf("stream: scorer window must be positive, got %d", w)
	}
	cfg, err := cfg.withDefaults(w)
	if err != nil {
		return err
	}
	sc := &hubScorer{ws: ws, window: w, stride: cfg.Stride}
	sc.namer, _ = ws.(AttackNamer)
	slider, _ := ws.(SlidingScorer)
	n := 1
	if slider != nil {
		n = len(h.shards)
	}
	for i := range n {
		sw := &scoreWorker{sc: sc, slider: slider, queue: make(chan scoreItem, cfg.QueueCap), done: make(chan struct{})}
		if i > 0 {
			sw.slider = slider.Fork()
		}
		sc.workers = append(sc.workers, sw)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	if !h.scorer.CompareAndSwap(nil, sc) {
		return fmt.Errorf("stream: scorer already attached")
	}
	for _, sw := range sc.workers {
		go sw.run()
	}
	return nil
}

// ScorerStats is a programmatic snapshot of the scoring service.
type ScorerStats struct {
	Attached bool
	Window   int
	Stride   int
	// Batch is the most windows one scorer call takes.
	Batch int
	// Workers is how many scoring goroutines there are: the hub's shard
	// count for a SlidingScorer, else one. The counters below sum them.
	Workers       int
	QueueDepth    int64
	WindowsScored uint64
	// WindowsContinued counts the scored windows a SlidingScorer computed
	// from its session's carry instead of in full — for the cascade, those
	// that reused the carried rows in both stages. WindowsContinued /
	// WindowsScored is the share of windows paying the reduced cost.
	WindowsContinued uint64
	WindowsDropped   uint64
	BatchesScored    uint64
	// ScoreSeconds is time inside the scorer calls, summed over workers:
	// with several, it can exceed the wall time it was measured over.
	ScoreSeconds float64
	// CarryBytes is the memory the open sessions' carries hold.
	CarryBytes int64
}

// ScorerStats snapshots the scoring-service counters.
func (h *Hub) ScorerStats() ScorerStats {
	sc := h.scorer.Load()
	if sc == nil {
		return ScorerStats{}
	}
	st := sc.stats()
	st.CarryBytes = h.carryBytes()
	return st
}

// stats sums the workers' counters; CarryBytes is the hub's to fill.
func (sc *hubScorer) stats() ScorerStats {
	st := ScorerStats{Attached: true, Window: sc.window, Stride: sc.stride, Batch: scoreBatch, Workers: len(sc.workers)}
	var nanos int64
	for _, sw := range sc.workers {
		st.QueueDepth += sw.queueLen.Load()
		st.WindowsScored += sw.windowsScored.Load()
		st.WindowsContinued += sw.windowsContinued.Load()
		st.WindowsDropped += sw.windowsDropped.Load()
		st.BatchesScored += sw.batchesScored.Load()
		nanos += sw.scoreNanos.Load()
	}
	st.ScoreSeconds = float64(nanos) / 1e9
	return st
}

// carryBytes sums the open sessions' carries.
func (h *Hub) carryBytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var total int64
	for _, s := range h.sessions {
		total += s.carryBytes.Load()
	}
	return total
}

func (sc *hubScorer) getBuf() *[]float64 {
	b, _ := sc.bufPool.Get().(*[]float64)
	if b == nil {
		s := make([]float64, sc.window*2) // pool miss only; the steady window rate recycles buffers through bufPool
		b = &s
	}
	return b
}

// pushSampleLocked advances one session's sliding window by one sample
// and emits a completed window into its shard's worker's queue. Runs on
// the shard goroutine under s.mu, so the per-session assembly state has
// a single writer. A full queue sheds the window (counted), never
// stalling the shard.
func (s *Session) pushSampleLocked(sc *hubScorer, smp pcm.Sample) {
	w2 := sc.window * 2
	if cap(s.scoreWin) < w2 {
		// Grow-once per session: the first sample after scorer attach sizes
		// the window buffer for the session's lifetime.
		s.scoreWin = make([]float64, 0, w2)
	}
	s.scoreWin = append(s.scoreWin, smp.AccessNum, smp.MissNum)
	if len(s.scoreWin) < w2 {
		return
	}
	buf := sc.getBuf()
	copy(*buf, s.scoreWin)
	// The ordinal advances on shed windows too: the gap is how the scorer
	// learns that the window before this one was never computed.
	s.scoreOrd++
	sw := sc.workers[s.shard.id%len(sc.workers)]
	select {
	case sw.queue <- scoreItem{sess: s, buf: buf, ord: s.scoreOrd, t: smp.Time}:
		sw.queueLen.Add(1)
	default:
		sw.windowsDropped.Add(1)
		sc.bufPool.Put(buf)
	}
	// Slide: keep the window's tail for the next overlapping emission.
	keep := w2 - sc.stride*2
	copy(s.scoreWin, s.scoreWin[sc.stride*2:])
	s.scoreWin = s.scoreWin[:keep]
}

// carryFor returns the session's carry, made at its first scored window.
// Only the session's worker calls it, so s.carry needs no lock; the size
// is published for ScorerStats.
func (s *Session) carryFor(slider SlidingScorer, stride int) SessionCarry {
	if s.carry == nil {
		s.carry = slider.NewCarry(stride)
		s.carryBytes.Store(int64(s.carry.Bytes()))
	}
	return s.carry
}

// run is a worker goroutine. A round blocks for its first window, then
// stages whatever else is already queued (up to the batch cap) without
// waiting, so batches grow under load and stay prompt when idle; a flush
// barrier ends its round at once. The round is scored, the verdicts are
// written back onto the sessions, and the barrier is acknowledged. Exits
// when the queue is closed and empty.
func (sw *scoreWorker) run() {
	defer close(sw.done)
	sc, slider := sw.sc, sw.slider
	sess := make([]*Session, 0, scoreBatch)
	times := make([]float64, 0, scoreBatch)
	flat := make([]float64, 0, scoreBatch*sc.window*2)
	var carries []SessionCarry
	var ords []uint64
	if slider != nil {
		carries = make([]SessionCarry, 0, scoreBatch)
		ords = make([]uint64, 0, scoreBatch)
	}
	apps := make([]int, scoreBatch)
	attacks := make([]int, scoreBatch)
	for it := range sw.queue {
		sess, times, flat, carries, ords = sess[:0], times[:0], flat[:0], carries[:0], ords[:0]
		for queued := true; queued; {
			sw.queueLen.Add(-1)
			if it.flush != nil {
				break
			}
			sess = append(sess, it.sess)
			times = append(times, it.t)
			flat = append(flat, *it.buf...)
			sc.bufPool.Put(it.buf)
			if slider != nil {
				carries = append(carries, it.sess.carryFor(slider, sc.stride))
				ords = append(ords, it.ord)
			}
			if len(sess) == scoreBatch {
				break
			}
			select {
			case it, queued = <-sw.queue: // closed: it is zero, the outer range ends
			default:
				queued = false
			}
		}
		if n := len(sess); n > 0 {
			start := time.Now()
			if slider != nil {
				continued := slider.ScoreCarried(n, flat, carries, ords, apps[:n], attacks[:n])
				sw.windowsContinued.Add(uint64(continued))
			} else {
				sc.ws.ScoreFlat(n, flat, apps[:n], attacks[:n])
			}
			sw.scoreNanos.Add(time.Since(start).Nanoseconds())
			sw.batchesScored.Add(1)
			sw.windowsScored.Add(uint64(n))
			for i, s := range sess {
				v := CascadeVerdict{
					App:         apps[i],
					AttackClass: attacks[i],
					Time:        times[i],
				}
				if sc.namer != nil {
					v.Attack = sc.namer.AttackName(v.AttackClass)
				}
				s.mu.Lock()
				v.Windows = s.cascadeWindows + 1
				s.cascadeWindows = v.Windows
				s.cascade = v
				s.mu.Unlock()
			}
		}
		if it.flush != nil {
			it.flush <- struct{}{}
		}
	}
}

// flushScorer is Drain's scoring barrier: every window enqueued before
// the call is scored before it returns. It rides a barrier through every
// worker's queue, then waits for all of them. Callers must hold the
// hub's ingestWG (as Drain does) so Close cannot tear the queues down
// concurrently.
func (sc *hubScorer) flushScorer() {
	acks := make(chan struct{}, len(sc.workers))
	for _, sw := range sc.workers {
		sw.queue <- scoreItem{flush: acks}
		sw.queueLen.Add(1)
	}
	for range sc.workers {
		<-acks
	}
}

// closeScorer stops the service after the shard goroutines have exited
// (no further enqueues): queued windows are still scored, then the
// workers wind down.
func (sc *hubScorer) closeScorer() {
	for _, sw := range sc.workers {
		close(sw.queue)
	}
	for _, sw := range sc.workers {
		<-sw.done
	}
}
