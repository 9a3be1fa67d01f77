package attack

import (
	"math"
	"testing"
	"testing/quick"

	"memdos/internal/cache"
	"memdos/internal/sim"
)

func TestKindString(t *testing.T) {
	if BusLock.String() != "bus locking" || LLCCleansing.String() != "LLC cleansing" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestStaticSchedules(t *testing.T) {
	if (Never{}).Active(100) {
		t.Error("Never is active")
	}
	if !(Always{}).Active(0) {
		t.Error("Always is inactive")
	}
	w := Window{Start: 10, End: 20}
	for _, c := range []struct {
		t    float64
		want bool
	}{{5, false}, {10, true}, {15, true}, {20, false}, {25, false}} {
		if got := w.Active(c.t); got != c.want {
			t.Errorf("Window.Active(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestAdaptiveValidation(t *testing.T) {
	r := sim.NewRNG(1)
	if _, err := NewAdaptive(r, 0, 50); err == nil {
		t.Error("minDur=0 accepted")
	}
	if _, err := NewAdaptive(r, 50, 10); err == nil {
		t.Error("max<min accepted")
	}
}

func TestAdaptiveStartsDisabled(t *testing.T) {
	a, err := NewAdaptive(sim.NewRNG(2), 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.Active(0) {
		t.Error("adaptive schedule should start disabled")
	}
	if a.Active(-1) {
		t.Error("negative time should be inactive")
	}
}

func TestAdaptiveTogglesWithinBounds(t *testing.T) {
	a, _ := NewAdaptive(sim.NewRNG(3), 10, 50)
	a.extend(600)
	prev := 0.0
	for _, tg := range a.toggles {
		d := tg - prev
		if d < 10 || d >= 50 {
			t.Fatalf("state duration %v outside [10,50)", d)
		}
		prev = tg
	}
	if len(a.toggles) < 600/50 {
		t.Errorf("too few toggles over 600s: %d", len(a.toggles))
	}
}

func TestAdaptiveWindowsMatchActive(t *testing.T) {
	check := func(seed uint64) bool {
		a, _ := NewAdaptive(sim.NewRNG(seed), 10, 50)
		wins := a.ActiveWindows(600)
		// Sample the schedule and cross-check against the windows.
		for ts := 0.5; ts < 600; ts += 7.3 {
			inWin := false
			for _, w := range wins {
				if w.Active(ts) {
					inWin = true
					break
				}
			}
			if inWin != a.Active(ts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAdaptiveWindowsClampedToHorizon(t *testing.T) {
	a, _ := NewAdaptive(sim.NewRNG(4), 10, 50)
	for _, w := range a.ActiveWindows(100) {
		if w.End > 100 || w.Start >= 100 {
			t.Errorf("window %+v exceeds horizon 100", w)
		}
		if w.End <= w.Start {
			t.Errorf("degenerate window %+v", w)
		}
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	a1, _ := NewAdaptive(sim.NewRNG(5), 10, 50)
	a2, _ := NewAdaptive(sim.NewRNG(5), 10, 50)
	for ts := 0.0; ts < 300; ts += 1.7 {
		if a1.Active(ts) != a2.Active(ts) {
			t.Fatalf("same-seed schedules diverge at %v", ts)
		}
	}
}

func TestAttackerConstructors(t *testing.T) {
	if _, err := NewBusLock(Always{}, 0); err == nil {
		t.Error("duty 0 accepted")
	}
	if _, err := NewBusLock(Always{}, 1.5); err == nil {
		t.Error("duty > 1 accepted")
	}
	if _, err := NewBusLock(nil, 0.5); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := NewLLCCleansing(Always{}, 0, 1e6); err == nil {
		t.Error("pressure 0 accepted")
	}
	if _, err := NewLLCCleansing(Always{}, 0.5, -1); err == nil {
		t.Error("negative rate accepted")
	}
	bl, err := NewBusLock(Window{Start: 60, End: 120}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Kind() != BusLock || bl.Intensity() != 0.7 {
		t.Errorf("bus lock attacker = %+v", bl)
	}
	if bl.Active(30) || !bl.Active(90) {
		t.Error("attacker schedule not honored")
	}
	cl, err := NewLLCCleansing(Always{}, 0.6, 3e6)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Kind() != LLCCleansing || cl.AccessRate() != 3e6 {
		t.Errorf("cleansing attacker = %+v", cl)
	}
	if cl.Schedule() == nil {
		t.Error("Schedule() nil")
	}
}

// --- Prober / Cleanser against the cache substrate ---

func microCache() *cache.Cache {
	return cache.MustNew(cache.Geometry{Sets: 32, Ways: 4, LineSize: 64})
}

func TestProberFindsVictimSets(t *testing.T) {
	c := microCache()
	const attacker, victim = 2, 1
	// Victim occupies sets 3, 7, 11 continuously.
	victimTouch := func() {
		for _, set := range []int{3, 7, 11} {
			for w := 0; w < 2; w++ {
				c.Access(victim, c.AddrForSet(set, uint64(w)))
			}
		}
	}
	victimTouch()
	p := NewProber(c, attacker)
	contested := p.FindContested(victimTouch, 1)
	want := map[int]bool{3: true, 7: true, 11: true}
	if len(contested) != 3 {
		t.Fatalf("contested sets = %v, want exactly {3,7,11}", contested)
	}
	for _, s := range contested {
		if !want[s] {
			t.Errorf("false contested set %d", s)
		}
	}
}

func TestProberQuietSystemFindsNothing(t *testing.T) {
	c := microCache()
	p := NewProber(c, 2)
	if contested := p.FindContested(nil, 1); len(contested) != 0 {
		t.Errorf("idle system reported contested sets %v", contested)
	}
}

func TestCleanserEvictsVictim(t *testing.T) {
	c := microCache()
	const attacker, victim = 2, 1
	// Victim loads its working set in sets 0..7.
	var victimAddrs []uint64
	for set := 0; set < 8; set++ {
		for w := 0; w < 3; w++ {
			a := c.AddrForSet(set, uint64(w))
			victimAddrs = append(victimAddrs, a)
			c.Access(victim, a)
		}
	}
	targets := []int{0, 1, 2, 3, 4, 5, 6, 7}
	cl, err := NewCleanser(c, attacker, targets)
	if err != nil {
		t.Fatal(err)
	}
	cl.Cleanse(8 * 4 * 2) // two full sweeps
	c.ResetStats()
	for _, a := range victimAddrs {
		c.Access(victim, a)
	}
	st := c.Stats(victim)
	if st.Misses != st.Accesses {
		t.Errorf("victim re-access: %d/%d misses, want all (cleansed)", st.Misses, st.Accesses)
	}
}

func TestCleanserRepeatSweepsKeepEvicting(t *testing.T) {
	// The salt rotation must make later sweeps evict, not hit.
	c := microCache()
	cl, _ := NewCleanser(c, 2, []int{5})
	cl.Cleanse(4)      // fill set 5
	n := cl.Cleanse(4) // second sweep: must still issue accesses
	if n != 4 {
		t.Errorf("second sweep issued %d", n)
	}
	st := c.Stats(2)
	// With rotating salts, the second sweep misses (and evicts) rather
	// than hitting resident lines.
	if st.Misses < 6 {
		t.Errorf("cleanser misses = %d of %d accesses; salts not rotating", st.Misses, st.Accesses)
	}
}

func TestCleanserValidation(t *testing.T) {
	c := microCache()
	if _, err := NewCleanser(c, 2, nil); err == nil {
		t.Error("empty targets accepted")
	}
	if _, err := NewCleanser(c, 2, []int{999}); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestCleanserBudgetRespected(t *testing.T) {
	c := microCache()
	cl, _ := NewCleanser(c, 2, []int{0, 1})
	if n := cl.Cleanse(13); n != 13 {
		t.Errorf("issued %d, want exactly 13", n)
	}
	if got := c.Stats(2).Accesses; got != 13 {
		t.Errorf("cache saw %d accesses", got)
	}
}

func TestTargetsCopied(t *testing.T) {
	c := microCache()
	cl, _ := NewCleanser(c, 2, []int{0, 1})
	ts := cl.Targets()
	ts[0] = 31
	if cl.Targets()[0] != 0 {
		t.Error("Targets() exposes internal slice")
	}
}

func TestAdaptiveMeanDuration(t *testing.T) {
	// Sanity: mean state duration approaches (10+50)/2 = 30.
	a, _ := NewAdaptive(sim.NewRNG(6), 10, 50)
	a.extend(100000)
	var prev, sum float64
	for _, tg := range a.toggles {
		sum += tg - prev
		prev = tg
	}
	mean := sum / float64(len(a.toggles))
	if math.Abs(mean-30) > 2 {
		t.Errorf("mean duration = %v, want ~30", mean)
	}
}

func TestRampedIntensity(t *testing.T) {
	a, _ := NewBusLock(Window{Start: 100, End: 200}, 0.8)
	if err := a.SetRamp(-1); err == nil {
		t.Error("negative ramp accepted")
	}
	if err := a.SetRamp(10); err != nil {
		t.Fatal(err)
	}
	if got := a.IntensityAt(50); got != 0 {
		t.Errorf("inactive intensity = %v", got)
	}
	if got := a.IntensityAt(100); got != 0 {
		t.Errorf("activation-edge intensity = %v, want 0 (ramp start)", got)
	}
	if got := a.IntensityAt(105); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("mid-ramp intensity = %v, want 0.4", got)
	}
	if got := a.IntensityAt(115); got != 0.8 {
		t.Errorf("post-ramp intensity = %v, want 0.8", got)
	}
	// Full Intensity() is unchanged by the ramp.
	if a.Intensity() != 0.8 {
		t.Error("Intensity() affected by ramp")
	}
}

func TestRampRestartsOnReactivation(t *testing.T) {
	sched, _ := NewSuppressor(Always{})
	a, _ := NewBusLock(sched, 0.6)
	a.SetRamp(10)
	a.IntensityAt(0)
	if got := a.IntensityAt(20); got != 0.6 {
		t.Fatalf("steady intensity = %v", got)
	}
	// Suppress (migration), then reactivate: the ramp must restart.
	sched.Suppress(30)
	if got := a.IntensityAt(25); got != 0 {
		t.Errorf("suppressed intensity = %v", got)
	}
	if got := a.IntensityAt(32); got > 0.13 {
		t.Errorf("re-activation intensity = %v, want ramping from 0", got)
	}
	if got := a.IntensityAt(45); got != 0.6 {
		t.Errorf("re-ramped intensity = %v", got)
	}
}

func TestNoRampIsInstant(t *testing.T) {
	a, _ := NewLLCCleansing(Window{Start: 10, End: 20}, 0.5, 1e6)
	if got := a.IntensityAt(10); got != 0.5 {
		t.Errorf("instant intensity = %v, want 0.5", got)
	}
}

func TestSuppressorValidation(t *testing.T) {
	if _, err := NewSuppressor(nil); err == nil {
		t.Error("nil schedule accepted")
	}
	s, _ := NewSuppressor(Always{})
	s.Suppress(10)
	s.Suppress(5) // never shortens
	if s.SuppressedUntil() != 10 {
		t.Errorf("suppression shortened to %v", s.SuppressedUntil())
	}
}

// TestSuppressorNeverShrinks is the regression test for overlapping
// Suppress calls: an earlier horizon must not re-arm the attack inside a
// longer suppression already in force (two mitigation responses racing —
// e.g. the respond engine migrating twice — must compose to the longer
// window).
func TestSuppressorNeverShrinks(t *testing.T) {
	s, err := NewSuppressor(Always{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Active(0) {
		t.Fatal("unsuppressed attack inactive")
	}
	s.Suppress(100)
	for _, earlier := range []float64{50, 99.999, 0, -10} {
		s.Suppress(earlier)
		if got := s.SuppressedUntil(); got != 100 {
			t.Fatalf("Suppress(%v) shrank horizon to %v", earlier, got)
		}
		if s.Active(99) {
			t.Fatalf("attack re-armed at t=99 after Suppress(%v)", earlier)
		}
	}
	// The window edge is half-open: suppressed strictly before until.
	if s.Active(99.999) || !s.Active(100) {
		t.Errorf("suppression edge wrong: Active(99.999)=%v Active(100)=%v",
			s.Active(99.999), s.Active(100))
	}
	// Extending remains possible after no-op shrink attempts.
	s.Suppress(200)
	if s.Active(150) || !s.Active(200) {
		t.Errorf("extension failed: Active(150)=%v Active(200)=%v", s.Active(150), s.Active(200))
	}
}

func TestNewMemBandwidth(t *testing.T) {
	a, err := NewMemBandwidth(Always{}, 3.2e10, 0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind() != MemBandwidth {
		t.Fatalf("kind = %v", a.Kind())
	}
	if a.Kind().String() != "DRAM bandwidth" {
		t.Fatalf("kind string = %q", a.Kind().String())
	}
	if a.BWRate() != 3.2e10 || a.ReadFraction() != 0.8 || a.Intensity() != 1.0 {
		t.Fatalf("accessors: bw=%v read=%v duty=%v", a.BWRate(), a.ReadFraction(), a.Intensity())
	}
	if a.AccessRate() <= 0 {
		t.Fatal("hog has no bus-side access storm")
	}
	// Duty cycle flows through IntensityAt (including ramps) like the
	// other attacks.
	if err := a.SetRamp(10); err != nil {
		t.Fatal(err)
	}
	a.Active(0) // activation edge
	if got := a.IntensityAt(5); got <= 0 || got >= 1.0 {
		t.Fatalf("ramped intensity at 5s = %v, want in (0,1)", got)
	}
	if got := a.IntensityAt(20); got != 1.0 {
		t.Fatalf("post-ramp intensity = %v, want 1", got)
	}
	// Other kinds read zero bandwidth accessors.
	bl, err := NewBusLock(Always{}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if bl.BWRate() != 0 || bl.ReadFraction() != 0 {
		t.Fatalf("bus-lock attacker has DRAM fields: %v/%v", bl.BWRate(), bl.ReadFraction())
	}

	bad := [][4]float64{{0, 0.5, 1, 0}, {-1, 0.5, 1, 0}, {1e9, -0.1, 1, 0}, {1e9, 1.1, 1, 0}, {1e9, 0.5, 0, 0}, {1e9, 0.5, 1.5, 0}}
	for i, c := range bad {
		if _, err := NewMemBandwidth(Always{}, c[0], c[1], c[2]); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := NewMemBandwidth(nil, 1e9, 0.5, 1); err == nil {
		t.Error("nil schedule accepted")
	}
}

// BenchmarkFindContested times the LLC cleansing attack's probing phase:
// fill every set, let the victim touch a band of sets with fresh tags,
// recheck.
func BenchmarkFindContested(b *testing.B) {
	c := cache.MustNew(cache.GeometryScaled)
	prober := NewProber(c, 1)
	const victim cache.Owner = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prober.FindContested(func() {
			for set := 0; set < 32; set++ {
				c.Access(victim, c.AddrForSet(set, uint64(i)<<8|uint64(set)))
			}
		}, 1)
	}
}
