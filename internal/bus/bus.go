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

import (
	"fmt"
	"slices"
)

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
	if s.Requested == 0 {
		return 1
	}
	return s.Delivered / s.Requested
}

// Deliveries is the per-owner delivered access counts of one Resolve. It
// is a view over the bus's per-owner state: valid until the next Resolve
// call, which is the lifetime every per-step caller needs. Owners that
// requested nothing, and released owners, read as 0.
type Deliveries struct {
	own []owner
}

// Of returns the accesses delivered to owner this step.
func (d Deliveries) Of(o Owner) float64 {
	if o >= 0 && int(o) < len(d.own) {
		return d.own[o].delivered
	}
	return 0
}

// owner is one client's pending demand, last delivery and stats.
type owner struct {
	// registered marks an owner on the bus's owner list.
	registered bool
	req        float64 // accesses wanted this step
	lock       float64 // lock seconds wanted this step
	delivered  float64 // the last Resolve's delivery, read through Deliveries
	stats      Stats
}

// Bus is the shared-bus arbiter. It is not safe for concurrent use.
//
// Per-owner state lives in a dense slice indexed by Owner (owners are
// small VM ids): Resolve runs once per simulation step, and with maps it
// was a measurable share of the step's allocations. Resolve walks only
// the owner list — the owners that requested since their last Release,
// in ascending order — so a released owner (a migrated VM's husk) costs
// nothing per step.
type Bus struct {
	// capacity caps total delivered accesses per simulated second. Zero or
	// negative means uncapped.
	capacity float64

	own    []owner
	owners []Owner
}

// New returns a bus with the given total bandwidth in accesses per
// simulated second (<= 0 means uncapped).
func New(capacityPerSecond float64) *Bus {
	return &Bus{capacity: capacityPerSecond}
}

// touch returns owner o's state, first putting o on the owner list if it
// is not registered. o must be non-negative.
func (b *Bus) touch(o Owner) *owner {
	if int(o) < len(b.own) && b.own[o].registered {
		return &b.own[o]
	}
	for len(b.own) <= int(o) {
		b.own = append(b.own, owner{})
	}
	b.own[o].registered = true
	i, _ := slices.BinarySearch(b.owners, o)
	b.owners = slices.Insert(b.owners, i, o)
	return &b.own[o]
}

// Release takes owner o off the owner list: Resolve stops visiting it,
// its pending requests are dropped and it reads as delivered 0. Its stats
// are kept; its next request registers it again. Releasing an
// unregistered owner is a no-op.
func (b *Bus) Release(o Owner) {
	if o < 0 || int(o) >= len(b.own) || !b.own[o].registered {
		return
	}
	st := &b.own[o]
	st.registered = false
	st.req, st.lock, st.delivered = 0, 0, 0
	i, _ := slices.BinarySearch(b.owners, o)
	b.owners = slices.Delete(b.owners, i, i+1)
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
	// Every step's request from a registered owner updates its slot in
	// place; only registration goes through touch, which is not inlined.
	if int(o) < len(b.own) && b.own[o].registered {
		b.own[o].req += n
		return
	}
	b.touch(o).req += n
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
	b.touch(o).lock += d
}

// Resolve arbitrates the current step of length dt seconds and returns the
// delivered access count per owner. Per-owner availability is
// 1 - (lock time held by others)/dt, clamped to [0,1]; total lock demand is
// first clamped to dt (the bus cannot be locked for longer than the step,
// so competing lockers scale down proportionally). After lock scaling, if
// aggregate demand exceeds the bandwidth cap for the unlocked fraction of
// the step, deliveries scale down proportionally. Request and lock state
// are cleared for the next step; the returned view is valid until the next
// Resolve. Every pass walks the owner list in ascending order, so each
// sum adds the same terms in the same order whatever was released.
//
//memdos:hotpath
func (b *Bus) Resolve(dt float64) Deliveries {
	if dt <= 0 {
		panic(fmt.Sprintf("bus: non-positive step %v", dt))
	}
	var totalLock float64
	for _, o := range b.owners {
		totalLock += b.own[o].lock
	}
	lockScale := 1.0
	if totalLock > dt {
		lockScale = dt / totalLock
	}

	var totalDelivered float64
	for _, o := range b.owners {
		st := &b.own[o]
		othersLock := (totalLock - st.lock) * lockScale
		avail := 1 - othersLock/dt
		if avail < 0 {
			avail = 0
		}
		st.delivered = st.req * avail
		totalDelivered += st.delivered
	}

	// Bandwidth cap applies to the fraction of the step the bus is not
	// held by atomic locks. Scaling by 1 leaves a delivery bit-identical,
	// so the stats pass applies the scale unconditionally.
	scale := 1.0
	if b.capacity > 0 {
		freeFrac := 1 - (totalLock*lockScale)/dt
		if freeFrac < 0 {
			freeFrac = 0
		}
		budget := b.capacity * dt * freeFrac
		if totalDelivered > budget && totalDelivered > 0 {
			scale = budget / totalDelivered
		}
	}

	for _, o := range b.owners {
		st := &b.own[o]
		st.delivered *= scale
		st.stats.Requested += st.req
		st.stats.Delivered += st.delivered
		if st.lock != 0 { // sparsity fast path: skip owners that never locked
			st.stats.LockTime += st.lock * lockScale
		}
		st.req, st.lock = 0, 0
	}
	return Deliveries{own: b.own}
}

// Stats returns a copy of the accumulated statistics for owner.
func (b *Bus) Stats(o Owner) Stats {
	if o >= 0 && int(o) < len(b.own) {
		return b.own[o].stats
	}
	return Stats{}
}

// ResetStats zeroes the accumulated statistics.
func (b *Bus) ResetStats() {
	for i := range b.own {
		b.own[i].stats = Stats{}
	}
}
