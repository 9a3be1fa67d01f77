package stream

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"memdos/internal/core"
	"memdos/internal/pcm"
)

// numShards is the default shard count: one worker per CPU.
func numShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// AlarmEvent is one alarm transition of one session, delivered to
// subscribers: Raised true when the detector's alarm goes up, false when
// it clears. Time is the triggering decision's (simulated) timestamp.
type AlarmEvent struct {
	Session  string  `json:"session"`
	Detector string  `json:"detector"`
	Time     float64 `json:"t"`
	Raised   bool    `json:"raised"`
}

// SessionInfo is a point-in-time view of one detection session.
type SessionInfo struct {
	ID       string `json:"id"`
	Profile  string `json:"profile"`
	Detector string `json:"detector"`
	Shard    int    `json:"shard"`

	Ingested  uint64 `json:"ingested"`
	Dropped   uint64 `json:"dropped"`
	Pending   int64  `json:"pending"`
	Decisions uint64 `json:"decisions"`
	// OutOfOrder counts decisions whose timestamp ran backwards (a
	// producer replaying history); they still count as decisions but are
	// excluded from incident folding.
	OutOfOrder uint64 `json:"outOfOrder"`

	AlarmActive  bool           `json:"alarmActive"`
	AlarmsRaised uint64         `json:"alarmsRaised"`
	LastDecision *core.Decision `json:"lastDecision,omitempty"`
	// Cascade is the most recent batched-inference verdict (nil until the
	// hub's scoring service has scored a window of this session).
	Cascade *CascadeVerdict `json:"cascade,omitempty"`
	// Incidents are the session's alarm episodes, flap-merged with the
	// hub's MergeGap.
	Incidents []core.Incident `json:"incidents,omitempty"`
	// State is the detector's state snapshot (nil for detectors without
	// Snapshotter support).
	State map[string]float64 `json:"state,omitempty"`
}

// Session is one protected VM's always-on detection pipeline. All
// detector and incident-fold mutation happens on the session's shard
// goroutine; mu guards inspection against that single writer and orders
// a close after any observer call in progress.
type Session struct {
	hub     *Hub
	id      string
	profile string
	det     core.Detector
	shard   *shard

	// queue accounting. pending is the number of accepted samples not
	// yet processed; qmu/cond implement the Block policy. removed is set
	// once, under mu (see remove), and read by Hub.gather without it.
	pending atomic.Int64
	qmu     sync.Mutex
	cond    *sync.Cond
	removed atomic.Bool

	ingested atomic.Uint64
	dropped  atomic.Uint64

	// mu guards everything below (shard goroutine writes, info reads).
	mu sync.Mutex
	// incidents is the session's one alarm edge fold: it also holds the
	// alarm state, the raise count and the last in-order decision.
	incidents  core.IncidentFold
	decisions  uint64
	outOfOrder uint64

	// scoreWin assembles the session's sliding cascade window and scoreOrd
	// counts the windows it has emitted (both written on the shard
	// goroutine); cascade/cascadeWindows hold the latest verdict (written
	// by the session's scoring worker). All guarded by mu.
	scoreWin       []float64
	scoreOrd       uint64
	cascade        CascadeVerdict
	cascadeWindows uint64

	// carry is what a SlidingScorer keeps between the session's windows:
	// nil until the first scored window, touched by the session's scoring
	// worker alone. carryBytes is its size, for anyone to read.
	carry      SessionCarry
	carryBytes atomic.Int64
}

func newSession(h *Hub, id, profile string, det core.Detector, sh *shard) *Session {
	s := &Session{hub: h, id: id, profile: profile, det: det, shard: sh}
	s.cond = sync.NewCond(&s.qmu)
	return s
}

func (s *Session) drop(n int64) {
	s.dropped.Add(uint64(n))
	s.hub.samplesDropped.Add(uint64(n))
}

// finishBatch is called by the shard goroutine after processing one
// segment. Only Block-policy producers wait on cond, so only Block pays
// for the broadcast.
func (s *Session) finishBatch(n int64) {
	s.pending.Add(-n)
	if s.hub.cfg.Policy != Block {
		return
	}
	s.qmu.Lock()
	s.cond.Broadcast()
	s.qmu.Unlock()
}

// wake releases Block-policy waiters (hub close / session removal).
func (s *Session) wake() {
	s.qmu.Lock()
	s.cond.Broadcast()
	s.qmu.Unlock()
}

// remove ends the session for its observers. removed is set under mu, so
// a batch the shard is folding finishes its observer calls first and no
// later batch makes any; only then does every observer forget the
// session, so no queued batch can bring its record back.
func (s *Session) remove() {
	s.mu.Lock()
	s.removed.Store(true)
	s.mu.Unlock()
	s.wake()
	s.hub.forget(s.id)
}

// process runs the batch through the detector. It executes only on the
// session's shard goroutine — the detector is single-writer by
// construction; mu is held so info() observes consistent state.
func (s *Session) process(batch []pcm.Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := s.hub.scorer.Load()
	for _, smp := range batch {
		for _, d := range s.det.Push(smp) {
			s.foldLocked(d)
		}
		if sc != nil {
			s.pushSampleLocked(sc, smp)
		}
	}
}

// foldLocked absorbs one decision: counters, the incident fold, and the
// hub's hand-off of what the fold made of it. Caller holds s.mu.
func (s *Session) foldLocked(d core.Decision) {
	s.decisions++
	s.hub.decisionsTotal.Inc()
	ok, edge := s.incidents.Observe(d)
	if !ok {
		s.outOfOrder++
		return
	}
	s.hub.deliver(s, d, edge)
}

// info snapshots the session.
func (s *Session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := SessionInfo{
		ID:           s.id,
		Profile:      s.profile,
		Detector:     s.det.Name(),
		Shard:        s.shard.id,
		Ingested:     s.ingested.Load(),
		Dropped:      s.dropped.Load(),
		Pending:      s.pending.Load(),
		Decisions:    s.decisions,
		OutOfOrder:   s.outOfOrder,
		AlarmActive:  s.incidents.Active(),
		AlarmsRaised: uint64(s.incidents.Raised()),
		Incidents:    s.incidents.Merged(s.hub.cfg.MergeGap),
		State:        core.SnapshotDetector(s.det),
	}
	if d, ok := s.incidents.Last(); ok {
		in.LastDecision = &d
	}
	if s.cascadeWindows > 0 {
		v := s.cascade
		in.Cascade = &v
	}
	return in
}

func errRemoved(id string) error { return fmt.Errorf("stream: session %q closed", id) }
