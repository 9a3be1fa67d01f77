package cache

import (
	"math"
	"testing"
	"testing/quick"

	"memdos/internal/sim"
)

func small() *Cache {
	return MustNew(Geometry{Sets: 8, Ways: 4, LineSize: 64})
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Sets: 0, Ways: 4, LineSize: 64},
		{Sets: 8, Ways: 0, LineSize: 64},
		{Sets: 8, Ways: 4, LineSize: 0},
		{Sets: 8, Ways: 4, LineSize: 48}, // not a power of two
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v should be invalid", g)
		}
		if _, err := New(g); err == nil {
			t.Errorf("New(%+v) should fail", g)
		}
	}
	if err := GeometryXeonE52660.Validate(); err != nil {
		t.Errorf("paper geometry invalid: %v", err)
	}
	if got := GeometryXeonE52660.Size(); got != 35*1024*1024 {
		t.Errorf("Xeon LLC size = %d, want 35 MiB", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad geometry did not panic")
		}
	}()
	MustNew(Geometry{})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(1, 0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(1, 0x1000) {
		t.Error("second access should hit")
	}
	st := c.Stats(1)
	if st.Accesses != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 accesses 1 miss", st)
	}
}

func TestSameSetDifferentTags(t *testing.T) {
	c := small()
	a0 := c.AddrForSet(3, 0)
	a1 := c.AddrForSet(3, 1)
	c.Access(1, a0)
	c.Access(1, a1)
	if !c.Access(1, a0) || !c.Access(1, a1) {
		t.Error("both lines should fit in a 4-way set")
	}
	occ := c.SetOccupancy(3)
	if occ[1] != 2 {
		t.Errorf("set occupancy = %v, want owner 1 -> 2", occ)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 4 ways
	// Fill set 0 with 4 lines, then touch line 0 to refresh it, then
	// insert a 5th: the LRU victim must be line 1, not line 0.
	addrs := make([]uint64, 5)
	for i := range addrs {
		addrs[i] = c.AddrForSet(0, uint64(i))
	}
	for _, a := range addrs[:4] {
		c.Access(1, a)
	}
	c.Access(1, addrs[0]) // refresh
	c.Access(1, addrs[4]) // evicts addrs[1]
	if !c.Access(1, addrs[0]) {
		t.Error("refreshed line was evicted")
	}
	if c.Access(1, addrs[1]) {
		t.Error("LRU line should have been evicted")
	}
}

func TestCrossOwnerEvictionCounted(t *testing.T) {
	c := small()
	// Victim owner 1 fills set 0; attacker owner 2 cleanses it.
	for i := 0; i < 4; i++ {
		c.Access(1, c.AddrForSet(0, uint64(i)))
	}
	for i := 10; i < 14; i++ {
		c.Access(2, c.AddrForSet(0, uint64(i)))
	}
	st := c.Stats(1)
	if st.Evicted != 4 {
		t.Errorf("victim evicted count = %d, want 4", st.Evicted)
	}
	// Now every victim re-access misses: the cleansing signature.
	for i := 0; i < 4; i++ {
		if c.Access(1, c.AddrForSet(0, uint64(i))) {
			t.Error("cleansed line still resident")
		}
	}
}

func TestOccupancy(t *testing.T) {
	c := small()
	c.Access(1, c.AddrForSet(0, 0))
	c.Access(1, c.AddrForSet(1, 0))
	c.Access(2, c.AddrForSet(1, 1))
	occ := c.Occupancy()
	if occ[1] != 2 || occ[2] != 1 {
		t.Errorf("occupancy = %v", occ)
	}
}

func TestFlushClearsContentsKeepsStats(t *testing.T) {
	c := small()
	c.Access(1, 0x40)
	c.Flush()
	if len(c.Occupancy()) != 0 {
		t.Error("flush left valid lines")
	}
	if c.Stats(1).Accesses != 1 {
		t.Error("flush should preserve stats")
	}
	if c.Access(1, 0x40) {
		t.Error("access after flush should miss")
	}
}

func TestResetStats(t *testing.T) {
	c := small()
	c.Access(1, 0x40)
	c.ResetStats()
	if st := c.Stats(1); st.Accesses != 0 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	// Contents survive a stats reset.
	if !c.Access(1, 0x40) {
		t.Error("reset should not flush contents")
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Error("zero-access miss ratio should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRatio() != 0.25 {
		t.Errorf("miss ratio = %v", s.MissRatio())
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// The paper's geometry has 28672 sets (not a power of two); verify
	// the modulo path maps every address in range.
	c := MustNew(Geometry{Sets: 7, Ways: 2, LineSize: 64})
	r := sim.NewRNG(5)
	for i := 0; i < 1000; i++ {
		addr := r.Uint64() >> 8
		set := c.setIndex(addr)
		if set < 0 || set >= 7 {
			t.Fatalf("set index %d out of range for addr %x", set, addr)
		}
	}
}

func TestAddrForSetRoundTrip(t *testing.T) {
	check := func(setRaw, salt uint16) bool {
		c := small()
		set := int(setRaw) % c.Geometry().Sets
		addr := c.AddrForSet(set, uint64(salt))
		return c.setIndex(addr) == set
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrForSetDistinctTags(t *testing.T) {
	c := small()
	a := c.AddrForSet(2, 0)
	b := c.AddrForSet(2, 1)
	if c.tag(a) == c.tag(b) {
		t.Error("different salts should give different tags")
	}
}

func TestWorkingSetSmallerThanCacheAllHits(t *testing.T) {
	// Property: after a warmup pass, a working set no larger than the
	// cache never misses again (LRU with a fully resident set).
	c := MustNew(Geometry{Sets: 16, Ways: 4, LineSize: 64})
	capacity := 16 * 4
	addrs := make([]uint64, capacity)
	for i := range addrs {
		addrs[i] = c.AddrForSet(i%16, uint64(i/16))
	}
	for _, a := range addrs {
		c.Access(1, a)
	}
	c.ResetStats()
	for pass := 0; pass < 3; pass++ {
		for _, a := range addrs {
			c.Access(1, a)
		}
	}
	if st := c.Stats(1); st.Misses != 0 {
		t.Errorf("resident working set missed %d times", st.Misses)
	}
}

func TestWorkingSetLargerThanSetThrashes(t *testing.T) {
	// A working set of ways+1 lines in one set cycled in order under LRU
	// misses every time (the classic LRU pathological case).
	c := small()
	addrs := make([]uint64, 5)
	for i := range addrs {
		addrs[i] = c.AddrForSet(0, uint64(i))
	}
	for pass := 0; pass < 4; pass++ {
		for _, a := range addrs {
			c.Access(1, a)
		}
	}
	st := c.Stats(1)
	if st.Misses != st.Accesses {
		t.Errorf("cyclic over-capacity set: %d misses of %d accesses, want all misses", st.Misses, st.Accesses)
	}
}

func TestSetOccupancyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetOccupancy out of range did not panic")
		}
	}()
	small().SetOccupancy(99)
}

func TestStatsUnknownOwnerZero(t *testing.T) {
	c := small()
	if st := c.Stats(42); st != (Stats{}) {
		t.Errorf("unknown owner stats = %+v", st)
	}
}

func TestHitTransfersOwnership(t *testing.T) {
	// When two owners share a line (e.g. shared library page), a hit by a
	// second owner re-attributes the line; eviction is then charged to
	// the new owner.
	c := small()
	a := c.AddrForSet(0, 0)
	c.Access(1, a)
	c.Access(2, a) // hit, now owned by 2
	occ := c.SetOccupancy(0)
	if occ[2] != 1 || occ[1] != 0 {
		t.Errorf("ownership after shared hit = %v", occ)
	}
}

func TestLRUClockCrossesUint32Wrap(t *testing.T) {
	// Regression test for the recency clock width. A uint32 clock wraps
	// after ~4B accesses: lines touched after the wrap get tiny stamps and
	// look older than everything resident, so LRU evicts the most recently
	// used lines. Force stamps to straddle 2^32 and check ordering holds.
	c := small() // 4 ways
	addrs := make([]uint64, 5)
	for i := range addrs {
		addrs[i] = c.AddrForSet(0, uint64(i))
	}
	for _, a := range addrs[:4] {
		c.Access(1, a)
	}
	// Jump the clock so the next two touches land just below 2^32 and the
	// two after that just above it.
	c.lruClock = math.MaxUint32 - 2
	for _, a := range addrs[:4] {
		if !c.Access(1, a) {
			t.Fatal("resident line missed while re-touching")
		}
	}
	if c.lruClock <= math.MaxUint32 {
		t.Fatalf("clock %d did not cross 2^32; test is not exercising the wrap", c.lruClock)
	}
	// Insert a 5th line: the victim must be addrs[0] (oldest stamp, just
	// below the boundary), not one of the post-boundary lines.
	c.Access(1, addrs[4])
	for _, a := range addrs[1:] {
		if !c.Access(1, a) {
			t.Errorf("line %#x evicted despite being more recent than addrs[0]", a)
		}
	}
	if c.Access(1, addrs[0]) {
		t.Error("addrs[0] should have been the LRU victim")
	}
}

func TestAccessNoAllocs(t *testing.T) {
	// Access is the microsimulation's innermost loop; its steady state
	// (owners already seen) must not allocate.
	c := MustNew(GeometryScaled)
	for o := Owner(0); o < 4; o++ {
		c.Access(o, c.AddrForSet(0, uint64(o))) // grow the stats table
	}
	var i uint64
	avg := testing.AllocsPerRun(1000, func() {
		i++
		c.Access(Owner(i%4), c.AddrForSet(int(i)%c.Geometry().Sets, i%64))
	})
	if avg != 0 {
		t.Errorf("Access allocates %.2f objects/op in steady state, want 0", avg)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	// Mixed hit/miss stream over the scaled geometry with a handful of
	// owners, matching the microsimulation's access pattern. Run with
	// -benchmem: the acceptance bar is 0 allocs/op.
	c := MustNew(GeometryScaled)
	g := c.Geometry()
	for o := Owner(0); o < 4; o++ {
		c.Access(o, c.AddrForSet(0, uint64(o)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint64(i)
		c.Access(Owner(u%4), c.AddrForSet(int(u)%g.Sets, u%64))
	}
}

func TestOccupancyIntoMatchesMap(t *testing.T) {
	c := small()
	c.Access(1, c.AddrForSet(0, 0))
	c.Access(1, c.AddrForSet(1, 0))
	c.Access(2, c.AddrForSet(1, 1))
	dst := c.OccupancyInto(make([]int, 1)) // too short: must grow
	want := c.Occupancy()
	for o, n := range want {
		if dst[o] != n {
			t.Errorf("OccupancyInto[%d] = %d, want %d", o, dst[o], n)
		}
	}
	// Reuse without growth, after contents changed.
	c.Access(3, c.AddrForSet(2, 0))
	dst = c.OccupancyInto(dst)
	if dst[3] != 1 || dst[1] != 2 || dst[2] != 1 {
		t.Errorf("reused OccupancyInto = %v", dst)
	}
	if got := c.OwnerOccupancy(1); got != 2 {
		t.Errorf("OwnerOccupancy(1) = %d, want 2", got)
	}
	if got := c.OwnerOccupancy(9); got != 0 {
		t.Errorf("OwnerOccupancy(9) = %d, want 0", got)
	}
}

func TestSetOwnerOccupancyMatchesMap(t *testing.T) {
	c := small()
	c.Access(1, c.AddrForSet(3, 0))
	c.Access(1, c.AddrForSet(3, 1))
	c.Access(2, c.AddrForSet(3, 2))
	occ := c.SetOccupancy(3)
	for o, n := range occ {
		if got := c.SetOwnerOccupancy(3, o); got != n {
			t.Errorf("SetOwnerOccupancy(3,%d) = %d, want %d", o, got, n)
		}
	}
	if got := c.SetOwnerOccupancy(3, 7); got != 0 {
		t.Errorf("SetOwnerOccupancy(3,7) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetOwnerOccupancy out of range did not panic")
		}
	}()
	c.SetOwnerOccupancy(99, 1)
}
