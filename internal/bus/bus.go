// Package bus models the socket-internal memory buses that the atomic bus
// locking attack abuses. Modern processors serialize certain atomic
// operations by locking all internal memory buses; an attacker that issues
// such operations continuously denies bus time to every co-located VM.
//
// The model is a per-step arbiter: components request ordinary accesses
// and/or atomic-lock hold time each simulation step; Resolve then computes
// how many of each owner's accesses were actually delivered given the lock
// time claimed by *other* owners and the bus bandwidth cap.
package bus

import "fmt"

// Owner identifies a bus client (a VM id); it matches cache.Owner
// numerically but is declared separately so the packages stay decoupled.
type Owner int32

// Stats accumulates per-owner delivered/requested access counts.
type Stats struct {
	Requested float64
	Delivered float64
	// LockTime is the total simulated seconds of atomic bus lock this
	// owner has held.
	LockTime float64
}

// DeliveryRatio returns Delivered/Requested, or 1 when nothing was
// requested (an idle client is not considered throttled).
func (s Stats) DeliveryRatio() float64 {
	if s.Requested == 0 { //memdos:ignore floateq exact zero means no request was ever recorded; division guard
		return 1
	}
	return s.Delivered / s.Requested
}

// Deliveries is the per-owner delivered access counts of one Resolve. It
// is a view over the bus's scratch buffer: valid until the next Resolve
// call, which is the lifetime every per-step caller needs. Owners that
// requested nothing read as 0.
type Deliveries struct {
	d []float64
}

// Of returns the accesses delivered to owner this step.
func (d Deliveries) Of(o Owner) float64 {
	if o >= 0 && int(o) < len(d.d) {
		return d.d[o]
	}
	return 0
}

// Bus is the shared-bus arbiter. It is not safe for concurrent use.
//
// Per-owner state lives in dense slices indexed by Owner (owners are small
// VM ids): Resolve runs once per simulation step, and with maps it was a
// measurable share of the step's allocations.
type Bus struct {
	// capacity caps total delivered accesses per simulated second. Zero or
	// negative means uncapped.
	capacity float64

	requests  []float64 // per-owner accesses wanted this step
	locks     []float64 // per-owner lock seconds wanted this step
	stats     []Stats
	delivered []float64 // scratch returned (as a view) by Resolve
}

// New returns a bus with the given total bandwidth in accesses per
// simulated second (<= 0 means uncapped).
func New(capacityPerSecond float64) *Bus {
	return &Bus{capacity: capacityPerSecond}
}

// grow extends s with zeros so index n is addressable.
func grow(s []float64, n int) []float64 {
	for len(s) <= n {
		s = append(s, 0)
	}
	return s
}

// RequestAccesses records that owner wants to perform n memory accesses in
// the current step. Calls accumulate.
func (b *Bus) RequestAccesses(o Owner, n float64) {
	if n < 0 {
		panic(fmt.Sprintf("bus: negative access request %v", n))
	}
	if o < 0 {
		panic(fmt.Sprintf("bus: invalid owner %d", o))
	}
	b.requests = grow(b.requests, int(o))
	b.requests[o] += n
}

// RequestLock records that owner wants to hold the atomic bus lock for d
// simulated seconds during the current step. Calls accumulate.
func (b *Bus) RequestLock(o Owner, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("bus: negative lock request %v", d))
	}
	if o < 0 {
		panic(fmt.Sprintf("bus: invalid owner %d", o))
	}
	b.locks = grow(b.locks, int(o))
	b.locks[o] += d
}

// lockOf returns owner o's pending lock time without growing the slice.
func (b *Bus) lockOf(o int) float64 {
	if o < len(b.locks) {
		return b.locks[o]
	}
	return 0
}

// Resolve arbitrates the current step of length dt seconds and returns the
// delivered access count per owner. Per-owner availability is
// 1 - (lock time held by others)/dt, clamped to [0,1]; total lock demand is
// first clamped to dt (the bus cannot be locked for longer than the step,
// so competing lockers scale down proportionally). After lock scaling, if
// aggregate demand exceeds the bandwidth cap for the unlocked fraction of
// the step, deliveries scale down proportionally. Request and lock state
// are cleared for the next step; the returned view is valid until the next
// Resolve.
//
//memdos:hotpath
func (b *Bus) Resolve(dt float64) Deliveries {
	if dt <= 0 {
		panic(fmt.Sprintf("bus: non-positive step %v", dt))
	}
	var totalLock float64
	for _, d := range b.locks {
		totalLock += d
	}
	lockScale := 1.0
	if totalLock > dt {
		lockScale = dt / totalLock
	}

	if cap(b.delivered) < len(b.requests) {
		b.delivered = make([]float64, len(b.requests))
	}
	b.delivered = b.delivered[:len(b.requests)]
	var totalDelivered float64
	for o, req := range b.requests {
		othersLock := (totalLock - b.lockOf(o)) * lockScale
		avail := 1 - othersLock/dt
		if avail < 0 {
			avail = 0
		}
		d := req * avail
		b.delivered[o] = d
		totalDelivered += d
	}

	// Bandwidth cap applies to the fraction of the step the bus is not
	// held by atomic locks.
	if b.capacity > 0 {
		freeFrac := 1 - (totalLock*lockScale)/dt
		if freeFrac < 0 {
			freeFrac = 0
		}
		budget := b.capacity * dt * freeFrac
		if totalDelivered > budget && totalDelivered > 0 {
			scale := budget / totalDelivered
			for o := range b.delivered {
				b.delivered[o] *= scale
			}
		}
	}

	for o, req := range b.requests {
		st := b.statsFor(Owner(o))
		st.Requested += req
		st.Delivered += b.delivered[o]
	}
	for o, d := range b.locks {
		if d != 0 { //memdos:ignore floateq exact-zero sparsity fast path: skip owners that never locked
			b.statsFor(Owner(o)).LockTime += d * lockScale
		}
	}

	clear(b.requests)
	clear(b.locks)
	return Deliveries{d: b.delivered}
}

func (b *Bus) statsFor(o Owner) *Stats {
	for len(b.stats) <= int(o) {
		b.stats = append(b.stats, Stats{})
	}
	return &b.stats[o]
}

// Stats returns a copy of the accumulated statistics for owner.
func (b *Bus) Stats(o Owner) Stats {
	if o >= 0 && int(o) < len(b.stats) {
		return b.stats[o]
	}
	return Stats{}
}

// ResetStats zeroes the accumulated statistics.
func (b *Bus) ResetStats() {
	for i := range b.stats {
		b.stats[i] = Stats{}
	}
}
