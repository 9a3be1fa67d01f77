package daemon

import (
	"fmt"
	"sync"

	"memdos/internal/dnn"
	"memdos/internal/stream"
)

// CascadeScorer adapts a compiled dnn.BatchScorer to the hub's
// stream.WindowScorer and stream.SlidingScorer interfaces, the seam the
// hub scores through (tests and e2ebench plug their own scorers into the
// same interfaces). The hub scores on one worker per shard, each through
// its own Fork; the mutex documents (and enforces) that one scorer's
// arenas have one caller.
type CascadeScorer struct {
	mu      sync.Mutex
	s       *dnn.BatchScorer
	carries []*dnn.Carry // ScoreCarried's typed view of the hub's carries
}

// NewCascadeScorer compiles the cascade for batched scoring. window <= 0
// uses the cascade's intrinsic (training-time) window length.
func NewCascadeScorer(c *dnn.Cascade, window int, opts dnn.ScorerOptions) (*CascadeScorer, error) {
	if window <= 0 {
		window = c.Window()
	}
	if window <= 0 {
		return nil, fmt.Errorf("daemon: cascade has no intrinsic window and none was given")
	}
	s, err := c.Scorer(window, opts)
	if err != nil {
		return nil, err
	}
	return &CascadeScorer{s: s}, nil
}

// Window implements stream.WindowScorer.
func (cs *CascadeScorer) Window() int { return cs.s.Window() }

// ScoreFlat implements stream.WindowScorer.
func (cs *CascadeScorer) ScoreFlat(n int, flat []float64, apps, attacks []int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.s.ScoreFlat(n, flat, apps, attacks)
}

// Fork implements stream.SlidingScorer: a scorer on the same compiled
// weights with arenas of its own.
func (cs *CascadeScorer) Fork() stream.SlidingScorer { return &CascadeScorer{s: cs.s.Fork()} }

// NewCarry implements stream.SlidingScorer.
func (cs *CascadeScorer) NewCarry(stride int) stream.SessionCarry { return cs.s.NewCarry(stride) }

// ScoreCarried implements stream.SlidingScorer.
func (cs *CascadeScorer) ScoreCarried(n int, flat []float64, carry []stream.SessionCarry, ord []uint64, apps, attacks []int) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.carries = cs.carries[:0]
	for _, c := range carry {
		cs.carries = append(cs.carries, c.(*dnn.Carry))
	}
	return cs.s.ScoreCarried(n, flat, cs.carries, ord, apps, attacks)
}

// AttackName implements stream.AttackNamer with the cascade's class
// labels.
func (cs *CascadeScorer) AttackName(class int) string {
	switch class {
	case dnn.ClassNoAttack:
		return "none"
	case dnn.ClassBusLock:
		return "bus-lock"
	case dnn.ClassCleansing:
		return "cleansing"
	default:
		return fmt.Sprintf("class-%d", class)
	}
}
