// Package guarded is golden-file input for the guarded check: access
// to `guarded by` fields from functions that never lock.
package guarded

import "sync"

// Guarded couples a mutex with the state it protects.
type Guarded struct {
	mu sync.Mutex
	// count is the number of hits. guarded by mu.
	count int
}

// Inc participates in the locking discipline.
func (g *Guarded) Inc() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.count++
}

// Peek reads the guarded field without ever locking.
func (g *Guarded) Peek() int {
	return g.count // want `Peek accesses count \(guarded by mu\) but never locks mu`
}

// countLocked is exempt by naming convention: callers hold the lock.
func (g *Guarded) countLocked() int {
	return g.count
}

// Sum drives the convention from the locking side.
func Sum(gs []*Guarded) int {
	total := 0
	for _, g := range gs {
		g.mu.Lock()
		total += g.countLocked()
		g.mu.Unlock()
	}
	return total
}

// Racy tolerates a racy read on purpose, with an audit trail.
func Racy(g *Guarded) int {
	return g.count //memdos:ignore guarded golden input for suppression behavior // wantsup `Racy accesses count \(guarded by mu\)`
}
