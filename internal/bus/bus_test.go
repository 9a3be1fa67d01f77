package bus

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestUncontendedDelivery(t *testing.T) {
	b := New(0)
	b.RequestAccesses(1, 1000)
	got := b.Resolve(0.01)
	if got.Of(1) != 1000 {
		t.Errorf("uncontended delivery = %v, want 1000", got.Of(1))
	}
	if r := b.Stats(1).DeliveryRatio(); r != 1 {
		t.Errorf("delivery ratio = %v, want 1", r)
	}
}

func TestLockThrottlesOthers(t *testing.T) {
	b := New(0)
	// Attacker (2) locks the bus for 70% of the step; victim (1) should
	// get only ~30% of its accesses through.
	b.RequestAccesses(1, 1000)
	b.RequestLock(2, 0.007)
	got := b.Resolve(0.01)
	if math.Abs(got.Of(1)-300) > 1e-9 {
		t.Errorf("victim delivery under 70%% lock = %v, want 300", got.Of(1))
	}
}

func TestLockDoesNotThrottleSelf(t *testing.T) {
	b := New(0)
	b.RequestAccesses(2, 500)
	b.RequestLock(2, 0.008)
	got := b.Resolve(0.01)
	if got.Of(2) != 500 {
		t.Errorf("locker's own delivery = %v, want 500 (own lock time does not block self)", got.Of(2))
	}
}

func TestLockDemandClampedToStep(t *testing.T) {
	b := New(0)
	// Two owners each want the lock for the full step: each effectively
	// holds it half the time, so a third owner gets nothing.
	b.RequestLock(2, 0.01)
	b.RequestLock(3, 0.01)
	b.RequestAccesses(1, 100)
	got := b.Resolve(0.01)
	if got.Of(1) != 0 {
		t.Errorf("victim delivery under saturated lock = %v, want 0", got.Of(1))
	}
	// Each locker is blocked only by the other's (scaled) half.
	if lt := b.Stats(2).LockTime; math.Abs(lt-0.005) > 1e-12 {
		t.Errorf("scaled lock time = %v, want 0.005", lt)
	}
}

func TestBandwidthCap(t *testing.T) {
	b := New(100000) // 100k accesses/s -> 1000 per 10ms step
	b.RequestAccesses(1, 800)
	b.RequestAccesses(2, 800)
	got := b.Resolve(0.01)
	total := got.Of(1) + got.Of(2)
	if math.Abs(total-1000) > 1e-6 {
		t.Errorf("capped total = %v, want 1000", total)
	}
	// Proportional sharing.
	if math.Abs(got.Of(1)-got.Of(2)) > 1e-9 {
		t.Errorf("equal demands should split equally: %v vs %v", got.Of(1), got.Of(2))
	}
}

func TestBandwidthCapShrinksUnderLock(t *testing.T) {
	b := New(100000)
	b.RequestAccesses(1, 2000)
	b.RequestLock(2, 0.005) // half the step locked
	got := b.Resolve(0.01)
	// Victim availability 0.5 -> 1000 requested through arbitration, but
	// the free-fraction budget is 100000*0.01*0.5 = 500.
	if math.Abs(got.Of(1)-500) > 1e-6 {
		t.Errorf("delivery = %v, want 500", got.Of(1))
	}
}

func TestStatsAccumulate(t *testing.T) {
	b := New(0)
	for i := 0; i < 5; i++ {
		b.RequestAccesses(1, 100)
		b.RequestLock(2, 0.002)
		b.Resolve(0.01)
	}
	s1 := b.Stats(1)
	if s1.Requested != 500 {
		t.Errorf("requested = %v, want 500", s1.Requested)
	}
	if math.Abs(s1.Delivered-400) > 1e-9 { // 20% locked each step
		t.Errorf("delivered = %v, want 400", s1.Delivered)
	}
	if lt := b.Stats(2).LockTime; math.Abs(lt-0.01) > 1e-12 {
		t.Errorf("lock time = %v, want 0.01", lt)
	}
	b.ResetStats()
	if b.Stats(1).Requested != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestStateClearedBetweenSteps(t *testing.T) {
	b := New(0)
	b.RequestLock(2, 0.01)
	b.RequestAccesses(1, 100)
	b.Resolve(0.01)
	// Next step: no lock request, full delivery.
	b.RequestAccesses(1, 100)
	got := b.Resolve(0.01)
	if got.Of(1) != 100 {
		t.Errorf("lock leaked across steps: delivery = %v", got.Of(1))
	}
}

func TestIdleOwnerDeliveryRatio(t *testing.T) {
	var s Stats
	if s.DeliveryRatio() != 1 {
		t.Error("idle owner should have delivery ratio 1")
	}
}

func TestNegativeRequestsPanic(t *testing.T) {
	b := New(0)
	for _, f := range []func(){
		func() { b.RequestAccesses(1, -1) },
		func() { b.RequestLock(1, -1) },
		func() { b.Resolve(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDeliveryNeverExceedsRequest(t *testing.T) {
	check := func(req1, req2 uint16, lockMs uint8) bool {
		b := New(50000)
		r1, r2 := float64(req1), float64(req2)
		b.RequestAccesses(1, r1)
		b.RequestAccesses(2, r2)
		b.RequestLock(3, float64(lockMs%12)/1000)
		got := b.Resolve(0.01)
		return got.Of(1) <= r1+1e-9 && got.Of(2) <= r2+1e-9 && got.Of(1) >= 0 && got.Of(2) >= 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreLockMoreThrottle(t *testing.T) {
	// Monotonicity: increasing attacker lock time never increases the
	// victim's delivered accesses.
	prev := math.Inf(1)
	for lock := 0.0; lock <= 0.01; lock += 0.001 {
		b := New(0)
		b.RequestAccesses(1, 1000)
		b.RequestLock(2, lock)
		got := b.Resolve(0.01)
		if got.Of(1) > prev+1e-9 {
			t.Fatalf("delivery increased with more lock time at %v", lock)
		}
		prev = got.Of(1)
	}
}

func TestResolveNoAllocs(t *testing.T) {
	// One arbitration round of the testbed's host: nine requesters and
	// one locker. Once the per-owner tables have grown, a step must not
	// allocate, nor must an owner's Release and its re-registration by
	// the next step's request.
	b := New(1e8)
	step := func() {
		for o := Owner(0); o < 9; o++ {
			b.RequestAccesses(o, 1000)
		}
		b.RequestLock(9, 0.007)
		b.Resolve(0.01)
		b.Release(4)
	}
	step() // grow the per-owner tables
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("Resolve allocates %.2f objects/step in steady state, want 0", avg)
	}
}

// A released owner leaves the owner list, reads as delivered 0, keeps
// its stats, and rejoins in order on its next request.
func TestReleaseDropsOwner(t *testing.T) {
	b := New(0)
	for o := Owner(0); o < 4; o++ {
		b.RequestAccesses(o, 100)
	}
	b.Resolve(0.01)
	b.RequestAccesses(2, 50) // dropped by the Release
	b.Release(2)
	b.Release(2) // no-op
	b.Release(9) // never registered: no-op
	if !slices.Equal(b.owners, []Owner{0, 1, 3}) {
		t.Fatalf("owners after Release = %v, want [0 1 3]", b.owners)
	}
	if got := b.Resolve(0.01).Of(2); got != 0 {
		t.Fatalf("released owner delivered %v, want 0", got)
	}
	if s := b.Stats(2); s.Requested != 100 || s.Delivered != 100 {
		t.Fatalf("Release lost stats: %+v", s)
	}
	b.RequestLock(2, 0.001)
	if !slices.Equal(b.owners, []Owner{0, 1, 2, 3}) {
		t.Fatalf("owners after re-touch = %v, want [0 1 2 3]", b.owners)
	}
}

// FuzzResolveMatchesReference drives the bus and the original dense
// arbiter (reference_test.go) through one script of access and lock
// requests under a bandwidth cap, with owners released after a step and
// requesting again later, and requires every delivery and every Stats
// field to match the reference bit for bit after each step.
func FuzzResolveMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		script := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(script)
		f.Add(uint8(1+rng.Intn(255)), script)
	}
	f.Fuzz(func(t *testing.T, capacity uint8, script []byte) {
		const owners = 12
		// 1..256 x 5e4 accesses/s: 500..128k accesses per 10 ms step.
		b, ref := New(float64(int(capacity)+1)*5e4), newRef(float64(int(capacity)+1)*5e4)
		same := func(step int, o Owner, what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d owner %d %s = %v, reference %v", step, o, what, got, want)
			}
		}
		step := 0
		resolve := func() {
			step++
			d, rd := b.Resolve(0.01), ref.Resolve(0.01)
			for o := Owner(-1); o <= owners; o++ {
				same(step, o, "Of", d.Of(o), of(rd, o))
				s, rs := b.Stats(o), ref.Stats(o)
				same(step, o, "Requested", s.Requested, rs.Requested)
				same(step, o, "Delivered", s.Delivered, rs.Delivered)
				same(step, o, "LockTime", s.LockTime, rs.LockTime)
			}
		}
		for ; len(script) >= 3; script = script[3:] {
			op, o, v := script[0]%4, Owner(script[1]%owners), script[2]
			switch op {
			case 0, 1:
				n := float64(v) * 250
				b.RequestAccesses(o, n)
				ref.RequestAccesses(o, n)
			case 2:
				d := float64(v) * 0.01 / 128 // up to 2 steps of lock
				b.RequestLock(o, d)
				ref.RequestLock(o, d)
			case 3:
				resolve()
				if v&1 != 0 {
					b.Release(o)
				}
			}
		}
		resolve()
	})
}
