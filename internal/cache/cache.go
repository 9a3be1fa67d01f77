// Package cache models a shared last-level cache (LLC) as a set-associative
// array with per-owner accounting. It is the substrate on which the LLC
// cleansing attack operates: the attacker and the victim contend for the
// same physical sets, so cleansing genuinely evicts victim lines and
// inflates the victim's miss counter, exactly the observable the paper's
// detectors consume.
//
// The geometry is configurable. The paper's testbed LLC (Xeon E5-2660 v4:
// 35 MB, 20-way, 64-byte lines) is available as GeometryXeonE52660; unit
// tests and the fast experiment path use a 1/64-scale geometry with the
// same associativity so set-conflict behaviour is preserved.
package cache

import "fmt"

// Geometry describes a set-associative cache.
type Geometry struct {
	Sets     int // number of sets
	Ways     int // associativity
	LineSize int // bytes per line
}

// GeometryXeonE52660 is the paper's LLC: 35 MB, 20-way, 64 B lines
// (28672 sets).
var GeometryXeonE52660 = Geometry{Sets: 28672, Ways: 20, LineSize: 64}

// GeometryScaled is the default reduced geometry used by tests and the fast
// experiment path: same 20-way associativity at 1/64 the capacity
// (448 sets x 20 ways x 64 B = 560 KiB).
var GeometryScaled = Geometry{Sets: 448, Ways: 20, LineSize: 64}

// Size returns the cache capacity in bytes.
func (g Geometry) Size() int { return g.Sets * g.Ways * g.LineSize }

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Sets <= 0 || g.Ways <= 0 || g.LineSize <= 0 {
		return fmt.Errorf("cache: invalid geometry %+v", g)
	}
	if g.LineSize&(g.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", g.LineSize)
	}
	return nil
}

// Owner identifies who loaded a cache line (e.g. a VM id). OwnerNone marks
// an invalid (empty) line.
type Owner int32

// OwnerNone marks an empty way.
const OwnerNone Owner = -1

// line is one cache way: the tag identifies the cached block, owner who
// loaded it, and lru its recency rank (higher = more recently used). The
// rank is 64-bit: a 32-bit clock silently wraps after ~4B accesses, at
// which point freshly-touched lines look ancient and LRU degenerates (see
// TestLRUClockCrossesUint32Wrap).
type line struct {
	tag   uint64
	owner Owner
	lru   uint64
	valid bool
}

// Stats counts accesses and misses attributed to one owner.
type Stats struct {
	Accesses uint64
	Misses   uint64
	// Evicted counts lines of this owner evicted by *other* owners —
	// the direct footprint of cleansing.
	Evicted uint64
}

// MissRatio returns Misses/Accesses, or 0 when no accesses occurred.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative LLC with LRU replacement and per-owner
// statistics. It is not safe for concurrent use; the simulation engine
// steps components sequentially.
//
// Per-owner statistics live in a dense slice indexed by Owner: owners are
// small non-negative VM ids, and Access is the innermost loop of the
// microsimulation (one call per simulated LLC access), so the steady state
// must stay free of map lookups and allocations.
type Cache struct {
	geom     Geometry
	lines    []line // sets*ways, set-major
	lruClock uint64
	stats    []Stats // dense, indexed by Owner; grown on first access
	setShift uint    // log2(LineSize)
	setMask  uint64
	setsPow2 bool // Sets is a power of two: setIndex masks instead of mods
}

// New returns an empty cache with the given geometry.
func New(g Geometry) (*Cache, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift < g.LineSize {
		shift++
	}
	c := &Cache{
		geom:     g,
		lines:    make([]line, g.Sets*g.Ways),
		setShift: shift,
		setMask:  uint64(g.Sets - 1),
		setsPow2: g.Sets&(g.Sets-1) == 0,
	}
	for i := range c.lines {
		c.lines[i].owner = OwnerNone
	}
	return c, nil
}

// MustNew is New but panics on invalid geometry; for tests and tables of
// known-good geometries.
func MustNew(g Geometry) *Cache {
	c, err := New(g)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the cache geometry.
func (c *Cache) Geometry() Geometry { return c.geom }

// setIndex maps an address to its set. Non-power-of-two set counts use a
// modulo; power-of-two counts use the usual mask (the branch is a
// precomputed flag, not re-derived per access).
func (c *Cache) setIndex(addr uint64) int {
	block := addr >> c.setShift
	if c.setsPow2 {
		return int(block & c.setMask)
	}
	return int(block % uint64(c.geom.Sets))
}

// tag returns the block tag for an address.
func (c *Cache) tag(addr uint64) uint64 { return addr >> c.setShift }

// statsFor returns (growing the dense table if needed) the stats record
// for owner. The grow path runs at most once per owner; the steady state
// is a bounds check and an index.
func (c *Cache) statsFor(o Owner) *Stats {
	if o < 0 {
		panic(fmt.Sprintf("cache: stats for invalid owner %d", o))
	}
	if int(o) >= len(c.stats) {
		grown := make([]Stats, int(o)+1)
		copy(grown, c.stats)
		c.stats = grown
	}
	return &c.stats[o]
}

// Access simulates owner touching addr. It returns true on a hit. On a
// miss the line is filled, evicting the LRU way; if the evicted line
// belonged to a different owner, that owner's Evicted counter increments.
//
// This is the simulation's innermost loop: one fused pass over the set
// resolves both the hit way and the first invalid (fill) way, owner stats
// are a dense-slice index, and the steady state performs no allocations.
//
//memdos:hotpath
func (c *Cache) Access(o Owner, addr uint64) bool {
	set := c.setIndex(addr)
	tag := addr >> c.setShift
	base := set * c.geom.Ways
	ways := c.lines[base : base+c.geom.Ways]
	st := c.statsFor(o)
	st.Accesses++
	c.lruClock++

	// Fused scan: find the hit way and remember the first invalid way in
	// the same pass.
	invalid := -1
	for i := range ways {
		l := &ways[i]
		if !l.valid {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if l.tag == tag {
			l.owner = o
			l.lru = c.lruClock
			return true
		}
	}
	// Miss: fill the invalid way if one exists, else evict the least
	// recently used way (the first on ties).
	way := invalid
	if way < 0 {
		way = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[way].lru {
				way = i
			}
		}
	}
	victim := &ways[way]
	st.Misses++
	if victim.valid && victim.owner != o && victim.owner != OwnerNone {
		// The victim owner's stats entry exists: it filled this line.
		c.stats[victim.owner].Evicted++
	}
	victim.tag = tag
	victim.owner = o
	victim.valid = true
	victim.lru = c.lruClock
	return false
}

// Stats returns a copy of the statistics for owner.
func (c *Cache) Stats(o Owner) Stats {
	if o >= 0 && int(o) < len(c.stats) {
		return c.stats[o]
	}
	return Stats{}
}

// ResetStats zeroes all per-owner counters without disturbing contents.
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = Stats{}
	}
}

// Occupancy returns, for each owner present, the number of valid lines it
// currently holds. It allocates its result; hot paths should use
// OccupancyInto or the per-owner counters below.
func (c *Cache) Occupancy() map[Owner]int {
	occ := make(map[Owner]int)
	for i := range c.lines {
		if c.lines[i].valid {
			occ[c.lines[i].owner]++
		}
	}
	return occ
}

// OccupancyInto counts each owner's valid lines into dst, which is indexed
// by owner and zeroed first. If dst is too short for the largest owner
// present it is grown (the only case that allocates); the possibly-grown
// slice is returned.
func (c *Cache) OccupancyInto(dst []int) []int {
	for i := range dst {
		dst[i] = 0
	}
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if int(l.owner) >= len(dst) {
			grown := make([]int, int(l.owner)+1)
			copy(grown, dst)
			dst = grown
		}
		dst[l.owner]++
	}
	return dst
}

// OwnerOccupancy returns the number of valid lines owner currently holds,
// without allocating.
func (c *Cache) OwnerOccupancy(o Owner) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].owner == o {
			n++
		}
	}
	return n
}

// SetOccupancy returns the number of valid lines each owner holds in one
// set. The LLC cleansing attacker uses this (via probing, see Prober) to
// find contested sets. It allocates; the prober's hot path uses
// SetOwnerOccupancy instead.
func (c *Cache) SetOccupancy(set int) map[Owner]int {
	if set < 0 || set >= c.geom.Sets {
		panic(fmt.Sprintf("cache: set %d out of range", set))
	}
	occ := make(map[Owner]int)
	base := set * c.geom.Ways
	for i := 0; i < c.geom.Ways; i++ {
		l := c.lines[base+i]
		if l.valid {
			occ[l.owner]++
		}
	}
	return occ
}

// SetOwnerOccupancy returns the number of valid lines owner holds in one
// set, without allocating — the prober calls this once per set per probe
// round.
func (c *Cache) SetOwnerOccupancy(set int, o Owner) int {
	if set < 0 || set >= c.geom.Sets {
		panic(fmt.Sprintf("cache: set %d out of range", set))
	}
	base := set * c.geom.Ways
	n := 0
	for i := 0; i < c.geom.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.owner == o {
			n++
		}
	}
	return n
}

// Flush invalidates every line. Statistics are preserved.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{owner: OwnerNone}
	}
}

// AddrForSet constructs an address that maps to the given set with the
// given tag salt; used by attackers to build eviction sets and by tests.
func (c *Cache) AddrForSet(set int, salt uint64) uint64 {
	if set < 0 || set >= c.geom.Sets {
		panic(fmt.Sprintf("cache: set %d out of range", set))
	}
	return (salt*uint64(c.geom.Sets)+uint64(set))<<c.setShift | 0
}
