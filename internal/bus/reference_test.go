package bus

import "fmt"

// refBus is the package's original arbiter, kept as the reference the
// owner-list Resolve must reproduce bit for bit: its per-owner slices are
// dense over every owner ever touched, and Resolve walks every slot.
// Released owners have no counterpart here: an owner that requests
// nothing contributes exact zeros, which is what Release relies on.
type refBus struct {
	capacity float64

	requests  []float64
	locks     []float64
	stats     []Stats
	delivered []float64
}

func newRef(capacityPerSecond float64) *refBus {
	return &refBus{capacity: capacityPerSecond}
}

func grow(s []float64, n int) []float64 {
	for len(s) <= n {
		s = append(s, 0)
	}
	return s
}

func (b *refBus) RequestAccesses(o Owner, n float64) {
	if n < 0 {
		panic(fmt.Sprintf("bus: negative access request %v", n))
	}
	if o < 0 {
		panic(fmt.Sprintf("bus: invalid owner %d", o))
	}
	b.requests = grow(b.requests, int(o))
	b.requests[o] += n
}

func (b *refBus) RequestLock(o Owner, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("bus: negative lock request %v", d))
	}
	if o < 0 {
		panic(fmt.Sprintf("bus: invalid owner %d", o))
	}
	b.locks = grow(b.locks, int(o))
	b.locks[o] += d
}

func (b *refBus) lockOf(o int) float64 {
	if o < len(b.locks) {
		return b.locks[o]
	}
	return 0
}

func (b *refBus) Resolve(dt float64) []float64 {
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
		if d != 0 {
			b.statsFor(Owner(o)).LockTime += d * lockScale
		}
	}

	clear(b.requests)
	clear(b.locks)
	return b.delivered
}

// of reads a Resolve result the way Deliveries.Of does.
func of(d []float64, o Owner) float64 {
	if o >= 0 && int(o) < len(d) {
		return d[o]
	}
	return 0
}

func (b *refBus) statsFor(o Owner) *Stats {
	for len(b.stats) <= int(o) {
		b.stats = append(b.stats, Stats{})
	}
	return &b.stats[o]
}

func (b *refBus) Stats(o Owner) Stats {
	if o >= 0 && int(o) < len(b.stats) {
		return b.stats[o]
	}
	return Stats{}
}
