package respond

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// fleetNames returns n session names whose creation order (shuffled) is
// not their sorted order, some a prefix of others.
func fleetNames(rng *rand.Rand, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("vm-%d", i) // "vm-10" sorts before "vm-2"
	}
	rng.Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// driveFleet feeds an engine a seeded event sequence over 512 sessions:
// raises and clears on a slowly advancing clock (so sustained-alarm
// escalations and quiet-period back-offs of many sessions come due
// inside one tick and their order shows), bare ticks, overrides, and
// sessions forgotten and seen again.
func driveFleet(t *testing.T, eng *Engine, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := fleetNames(rng, 512)
	now := 0.0
	for step := 0; step < 6000; step++ {
		now += rng.Float64() * 0.4
		name := names[rng.Intn(len(names))]
		switch k := rng.Intn(100); {
		case k < 45:
			eng.Tick(now)
			raise(t, eng, name, now)
		case k < 85:
			eng.Tick(now)
			clear(t, eng, name, now)
		case k < 92:
			eng.Tick(now)
		case k < 95:
			eng.Forget(name)
		case k < 97:
			if _, err := eng.Pause(name); err != nil {
				t.Fatal(err)
			}
		case k < 99:
			if _, err := eng.Resume(name); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := eng.Force(name, 1+rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Tick(now + 1000) // everything still mitigated backs off, in name order
}

// TestFleetActionLogUnchanged pins the order in which one tick acts on
// many sessions. The engine used to collect and sort every session name
// on every event; it now walks a slice kept in name order. The digest
// below is of the actuator call sequence and the final states that the
// collect-and-sort engine produced for this seeded sequence.
func TestFleetActionLogUnchanged(t *testing.T) {
	eng, act := newTestEngine(t, testConfig())
	driveFleet(t, eng, 20)

	h := fnv.New64a()
	calls := act.log()
	for _, c := range calls {
		fmt.Fprintf(h, "%s|%s|%x|%t|%s\n", c.kind, c.sess, c.duty, c.on, c.dest)
	}
	states := eng.States()
	for _, st := range states {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d\n", st.Session, st.Level, st.PeakLevel, st.Escalations, st.Deescalations, len(st.Actions))
		for _, a := range st.Actions {
			fmt.Fprintf(h, " %x|%s|%d|%x|%s|%s|%s\n", a.Time, a.Kind, a.Level, a.Duty, a.Reason, a.Dest, a.Err)
		}
	}
	const want uint64 = 0x96c22031d5be45f1
	if got := h.Sum64(); got != want {
		t.Errorf("actuator calls and final states digest %#x, want %#x (%d calls, %d sessions)", got, want, len(calls), len(states))
	}
	if len(calls) < 2000 || len(states) < 400 {
		t.Errorf("sequence too quiet to pin anything: %d calls, %d sessions", len(calls), len(states))
	}

	// The index the walk and the lookups rely on: each name once, in
	// strictly ascending order.
	eng.mu.Lock()
	defer eng.mu.Unlock()
	for i := 1; i < len(eng.sessions); i++ {
		if a, b := eng.sessions[i-1].name, eng.sessions[i].name; a >= b {
			t.Fatalf("session index not strictly name-ordered at %d: %q then %q", i, a, b)
		}
	}
}

// TestQuietEventDoesNotAllocate: with 512 sessions known, an Observe, an
// Advance or a Tick that moves no session touches the heap not at all.
func TestQuietEventDoesNotAllocate(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig())
	names := fleetNames(rand.New(rand.NewSource(1)), 512)
	for _, name := range names {
		clear(t, eng, name, 0)
	}
	i, now := 0, 0.0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		now += 0.01
		if err := eng.Observe(names[i%len(names)], now, false); err != nil { // duplicate clear
			t.Fatal(err)
		}
		eng.Advance(names[(i+1)%len(names)], now)
		eng.Tick(now)
	})
	if allocs != 0 {
		t.Errorf("quiet Observe+Advance+Tick at 512 sessions: %.1f allocs, want 0", allocs)
	}
}
