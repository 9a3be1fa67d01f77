package mem

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"memdos/internal/par"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func newTest(t *testing.T, sockets int) *Controller {
	t.Helper()
	c, err := New(DefaultNUMAConfig(sockets))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidate(t *testing.T) {
	bad := []func(*NUMAConfig){
		func(c *NUMAConfig) { c.Sockets = 0 },
		func(c *NUMAConfig) { c.ChannelsPerSocket = 0 },
		func(c *NUMAConfig) { c.ChannelBandwidth = 0 },
		func(c *NUMAConfig) { c.LineBytes = -1 },
		func(c *NUMAConfig) { c.RowHitLatency = 0 },
		func(c *NUMAConfig) { c.RowMissLatency = c.RowHitLatency / 2 },
		func(c *NUMAConfig) { c.RowConflictLatency = c.RowMissLatency / 2 },
		func(c *NUMAConfig) { c.RemoteLatencyFactor = 0.5 },
		func(c *NUMAConfig) { c.RemoteBandwidthFactor = 0 },
		func(c *NUMAConfig) { c.RemoteBandwidthFactor = 1.5 },
	}
	for i, mut := range bad {
		cfg := DefaultNUMAConfig(2)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	if err := DefaultNUMAConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// An uncontended owner under capacity gets everything it asked for at
// its baseline latency.
func TestSoloUncontended(t *testing.T) {
	c := newTest(t, 1)
	cfg := c.Config()
	const hit = 0.8
	bytesWanted := 0.25 * cfg.SocketCapacity() * cfg.LineBytes // quarter load
	c.Request(0, bytesWanted, hit)
	res := c.Resolve(1.0)
	if got, want := res.LinesOf(0), bytesWanted/cfg.LineBytes; !almost(got, want) {
		t.Fatalf("delivered %v lines, want %v", got, want)
	}
	if r := res.RatioOf(0); !almost(r, 1) {
		t.Fatalf("ratio %v, want 1", r)
	}
	if got, want := res.LatencyOf(0), cfg.BaselineLatency(hit); !almost(got, want) {
		t.Fatalf("latency %v, want baseline %v", got, want)
	}
	st := c.Stats(0)
	if !almost(st.DeliveryRatio(), 1) || !almost(st.AvgLatency(), cfg.BaselineLatency(hit)) {
		t.Fatalf("stats %+v inconsistent with resolution", st)
	}
	if !almost(st.Bytes, bytesWanted) {
		t.Fatalf("stats bytes %v, want %v", st.Bytes, bytesWanted)
	}
}

// Idle owners read as ratio 1 / latency 0, including out-of-range ids.
func TestIdleOwnerReads(t *testing.T) {
	c := newTest(t, 1)
	c.Request(3, 1024, 0.5)
	res := c.Resolve(1.0)
	for _, o := range []Owner{0, 7, 100} {
		if res.RatioOf(o) != 1 || res.LatencyOf(o) != 0 || res.LinesOf(o) != 0 {
			t.Fatalf("idle owner %d not neutral: ratio=%v lat=%v lines=%v",
				o, res.RatioOf(o), res.LatencyOf(o), res.LinesOf(o))
		}
	}
	if s := c.Stats(99); s.DeliveryRatio() != 1 || s.AvgLatency() != 0 {
		t.Fatalf("idle stats not neutral: %+v", s)
	}
}

// Two equal streams over capacity split the channel evenly, and each
// sees worse-than-baseline latency (row-buffer interference + queueing).
func TestFairShareUnderOverload(t *testing.T) {
	c := newTest(t, 1)
	cfg := c.Config()
	over := 1.5 * cfg.SocketCapacity() * cfg.LineBytes
	c.Request(0, over, 0.9)
	c.Request(1, over, 0.9)
	res := c.Resolve(1.0)
	half := cfg.SocketCapacity() / 2
	if !almost(res.LinesOf(0), half) || !almost(res.LinesOf(1), half) {
		t.Fatalf("uneven split: %v vs %v, want %v each", res.LinesOf(0), res.LinesOf(1), half)
	}
	base := cfg.BaselineLatency(0.9)
	if l := res.LatencyOf(0); l <= base {
		t.Fatalf("contended latency %v not above baseline %v", l, base)
	}
	if !almost(res.LatencyOf(0), res.LatencyOf(1)) {
		t.Fatalf("symmetric streams got different latencies: %v vs %v",
			res.LatencyOf(0), res.LatencyOf(1))
	}
}

// Max-min: a small flow is satisfied in full; the hogs split the rest.
func TestMaxMinProtectsSmallFlow(t *testing.T) {
	c := newTest(t, 1)
	cfg := c.Config()
	capLines := cfg.SocketCapacity()
	c.Request(0, 0.1*capLines*cfg.LineBytes, 0.5) // small
	c.Request(1, capLines*cfg.LineBytes, 0.9)     // hog
	c.Request(2, capLines*cfg.LineBytes, 0.9)     // hog
	res := c.Resolve(1.0)
	if !almost(res.RatioOf(0), 1) {
		t.Fatalf("small flow squeezed: ratio %v", res.RatioOf(0))
	}
	rest := (capLines - 0.1*capLines) / 2
	if !almost(res.LinesOf(1), rest) || !almost(res.LinesOf(2), rest) {
		t.Fatalf("hog grants %v/%v, want %v each", res.LinesOf(1), res.LinesOf(2), rest)
	}
}

// A sequential hog keeps most of its row-buffer locality while the
// victim sharing the channel loses its open rows — the victim's latency
// rises much more than the hog's (the Bechtel & Yun asymmetry).
func TestRowBufferAsymmetry(t *testing.T) {
	c := newTest(t, 1)
	cfg := c.Config()
	capB := cfg.SocketCapacity() * cfg.LineBytes
	c.Request(0, 0.05*capB, 0.6) // victim: modest demand
	c.Request(1, 1.5*capB, 0.95) // streaming hog
	res := c.Resolve(1.0)
	victimStretch := res.LatencyOf(0) / cfg.BaselineLatency(0.6)
	hogStretch := res.LatencyOf(1) / cfg.BaselineLatency(0.95)
	if victimStretch <= hogStretch {
		t.Fatalf("victim stretch %v not above hog stretch %v", victimStretch, hogStretch)
	}
	if victimStretch < 1.5 {
		t.Fatalf("victim latency stretch %v implausibly small under a 1.5x-capacity hog", victimStretch)
	}
}

// MemGuard budget: capping the hog restores the victim's delivery and
// most of its latency, and the capped hog's delivered bandwidth obeys
// the budget.
func TestBudgetRestoresVictim(t *testing.T) {
	c := newTest(t, 1)
	cfg := c.Config()
	capB := cfg.SocketCapacity() * cfg.LineBytes
	victimB := 0.3 * capB
	run := func() (vRatio, vLat, hogBytes float64) {
		c.Request(0, victimB, 0.6)
		c.Request(1, 2*capB, 0.95)
		res := c.Resolve(1.0)
		return res.RatioOf(0), res.LatencyOf(0), res.LinesOf(1) * cfg.LineBytes
	}
	_, hotLat, _ := run()
	budget := 0.1 * capB
	if err := c.SetBudget(1, budget); err != nil {
		t.Fatal(err)
	}
	vRatio, coldLat, hogBytes := run()
	if !almost(vRatio, 1) {
		t.Fatalf("victim ratio %v under budgeted hog, want 1", vRatio)
	}
	if coldLat >= hotLat {
		t.Fatalf("budget did not reduce victim latency: %v -> %v", hotLat, coldLat)
	}
	if hogBytes > budget*1.0000001 {
		t.Fatalf("hog delivered %v bytes above budget %v", hogBytes, budget)
	}
	// The hog's per-step ratio must reflect the clamp (pre-budget
	// denominator), or the respond rung could never slow it.
	c.Request(1, 2*capB, 0.95)
	res := c.Resolve(1.0)
	if r := res.RatioOf(1); r > 0.06 {
		t.Fatalf("budgeted hog ratio %v, want ~0.05", r)
	}
	if err := c.SetBudget(1, 0); err != nil { // clear
		t.Fatal(err)
	}
	c.Request(1, 2*capB, 0.95)
	if r := c.Resolve(1.0).RatioOf(1); !almost(r, 0.5) {
		t.Fatalf("cleared budget: ratio %v, want 0.5 (capacity-bound)", r)
	}
}

// NUMA: the same demand is strictly worse (slower, lower-bandwidth) when
// issued remotely, at demands straddling the socket capacity boundary.
func TestNUMARemotePenaltyAtChannelBoundary(t *testing.T) {
	cfg := DefaultNUMAConfig(2)
	capB := cfg.SocketCapacity() * cfg.LineBytes
	// Below, at, and above one socket group's capacity.
	for _, load := range []float64{0.5 * capB, capB, 1.5 * capB} {
		local := MustNew(cfg)
		local.Request(0, load, 0.8)
		lres := local.Resolve(1.0)

		remote := MustNew(cfg)
		if err := remote.SetRemoteFraction(0, 1); err != nil {
			t.Fatal(err)
		}
		remote.Request(0, load, 0.8)
		rres := remote.Resolve(1.0)

		if rres.LatencyOf(0) <= lres.LatencyOf(0) {
			t.Errorf("load %v: remote latency %v not above local %v",
				load, rres.LatencyOf(0), lres.LatencyOf(0))
		}
		if rres.LinesOf(0) > lres.LinesOf(0)*(1+1e-12) {
			t.Errorf("load %v: remote delivered %v above local %v",
				load, rres.LinesOf(0), lres.LinesOf(0))
		}
		if load > capB && rres.LinesOf(0) >= lres.LinesOf(0)*(1-1e-12) {
			t.Errorf("load %v: over capacity, remote delivery %v should be strictly below local %v",
				load, rres.LinesOf(0), lres.LinesOf(0))
		}
	}
}

// The interconnect caps remote inflow: a fully-remote hog is bounded by
// InterSocketBandwidth even when the target socket's channels are idle.
func TestInterSocketBandwidthCap(t *testing.T) {
	cfg := DefaultNUMAConfig(2)
	cfg.InterSocketBandwidth = 0.25 * cfg.SocketCapacity() * cfg.LineBytes
	c := MustNew(cfg)
	if err := c.SetHome(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRemoteFraction(0, 1); err != nil { // homed on 1, all traffic to 0
		t.Fatal(err)
	}
	c.Request(0, 2*cfg.SocketCapacity()*cfg.LineBytes, 0.9)
	res := c.Resolve(1.0)
	capLines := cfg.InterSocketBandwidth / cfg.LineBytes
	if res.LinesOf(0) > capLines*(1+1e-12) {
		t.Fatalf("remote hog moved %v lines, interconnect cap is %v", res.LinesOf(0), capLines)
	}
	if !almost(res.LinesOf(0), capLines) {
		t.Fatalf("remote hog moved %v lines, want the full interconnect cap %v", res.LinesOf(0), capLines)
	}
}

// A remote attacker must hurt a local victim less than a co-resident
// (same-socket) attacker: the interconnect and the remote bandwidth
// factor blunt its pressure. This pins the attack-reach direction the
// NUMA study depends on.
func TestRemoteAttackerWeakerThanLocal(t *testing.T) {
	cfg := DefaultNUMAConfig(2)
	capB := cfg.SocketCapacity() * cfg.LineBytes
	victim := func(c *Controller) (ratio, lat float64) {
		c.Request(0, 0.3*capB, 0.6)
		c.Request(1, 2.5*capB, 0.95)
		res := c.Resolve(1.0)
		return res.RatioOf(0), res.LatencyOf(0)
	}
	localC := MustNew(cfg) // both on socket 0
	lr, ll := victim(localC)

	remoteC := MustNew(cfg)
	if err := remoteC.SetHome(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := remoteC.SetRemoteFraction(1, 1); err != nil {
		t.Fatal(err)
	}
	rr, rl := victim(remoteC)

	if rr < lr {
		t.Fatalf("remote attacker starves victim harder than local: ratio %v < %v", rr, lr)
	}
	if rl > ll {
		t.Fatalf("remote attacker stretches victim latency more than local: %v > %v", rl, ll)
	}
	if lr >= 0.999 && ll <= cfg.BaselineLatency(0.6)*1.01 {
		t.Fatal("local attacker had no effect; test is vacuous")
	}
}

// Request accumulation is sharding-invariant: many small Requests equal
// one big one, bit for bit in the stats that feed telemetry.
func TestRequestAccumulation(t *testing.T) {
	one := newTest(t, 2)
	many := newTest(t, 2)
	one.Request(0, 64e6, 0.75)
	for i := 0; i < 1000; i++ {
		many.Request(0, 64e3, 0.75)
	}
	r1 := one.Resolve(0.01)
	r2 := many.Resolve(0.01)
	if !almost(r1.LinesOf(0), r2.LinesOf(0)) || !almost(r1.LatencyOf(0), r2.LatencyOf(0)) {
		t.Fatalf("sharded requests diverge: lines %v vs %v, lat %v vs %v",
			r1.LinesOf(0), r2.LinesOf(0), r1.LatencyOf(0), r2.LatencyOf(0))
	}
}

func TestPanicsAndErrors(t *testing.T) {
	c := newTest(t, 2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative bytes", func() { c.Request(0, -1, 0.5) })
	mustPanic("bad hit frac", func() { c.Request(0, 1, 1.5) })
	mustPanic("negative owner", func() { c.Request(-1, 1, 0.5) })
	mustPanic("zero dt", func() { c.Resolve(0) })
	if err := c.SetHome(0, 2); err == nil {
		t.Error("out-of-range socket accepted")
	}
	if err := c.SetRemoteFraction(0, 1.5); err == nil {
		t.Error("remote fraction > 1 accepted")
	}
	if err := c.SetBudget(0, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

// fingerprint runs a deterministic multi-owner workload and returns the
// exact bytes of every per-step resolution and the final stats.
func fingerprint(owners, steps int, sockets int) []byte {
	cfg := DefaultNUMAConfig(sockets)
	c := MustNew(cfg)
	var buf bytes.Buffer
	w := func(v float64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	for o := 0; o < owners; o++ {
		_ = c.SetHome(Owner(o), o%sockets)
		_ = c.SetRemoteFraction(Owner(o), float64(o%5)/10)
		if o%7 == 0 {
			_ = c.SetBudget(Owner(o), 1e9)
		}
	}
	for s := 0; s < steps; s++ {
		for o := 0; o < owners; o++ {
			amt := float64((o*2654435761+s*40503)%1000) * 1e6
			hit := 0.5 + 0.4*float64(o%2)
			c.Request(Owner(o), amt, hit)
		}
		res := c.Resolve(0.01)
		for o := 0; o < owners; o++ {
			w(res.LinesOf(Owner(o)))
			w(res.LatencyOf(Owner(o)))
		}
	}
	for o := 0; o < owners; o++ {
		st := c.Stats(Owner(o))
		w(st.Requested)
		w(st.Delivered)
		w(st.Bytes)
		w(st.LatencySum)
	}
	return buf.Bytes()
}

// TestMemDeterminismAcrossWorkers pins the byte-identical-at-any-worker-
// count contract: independent controller simulations fanned across the
// shared pool at 8 workers produce exactly the serial bytes (run with
// -race to also prove the cells share no state).
func TestMemDeterminismAcrossWorkers(t *testing.T) {
	const cells = 16
	run := func(workers int) [][]byte {
		out := make([][]byte, cells)
		r := par.Runner{Workers: workers}
		err := r.Do(cells, func(i int) error {
			out[i] = fingerprint(8+i%5, 50, 1+i%2)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Fatalf("cell %d diverges between 1 and 8 workers", i)
		}
	}
	again := run(8)
	for i := range serial {
		if !bytes.Equal(serial[i], again[i]) {
			t.Fatalf("cell %d not reproducible across runs", i)
		}
	}
}

// Resolve must not allocate in steady state, nor must an owner's Release
// and its re-registration by the next step's Request.
func TestResolveZeroAlloc(t *testing.T) {
	c := newTest(t, 2)
	for o := Owner(0); o < 64; o++ {
		_ = c.SetHome(o, int(o)%2)
		_ = c.SetRemoteFraction(o, 0.2)
	}
	load := func() {
		for o := Owner(0); o < 64; o++ {
			c.Request(o, 1e7, 0.7)
		}
		c.Resolve(0.01)
		c.Release(17)
	}
	load() // warm up scratch
	load()
	allocs := testing.AllocsPerRun(100, load)
	if allocs != 0 {
		t.Fatalf("Resolve allocates %v times per step, want 0", allocs)
	}
}

func TestResetStats(t *testing.T) {
	c := newTest(t, 1)
	c.Request(0, 1e6, 0.5)
	c.Resolve(1.0)
	if c.Stats(0).Delivered == 0 {
		t.Fatal("no stats accumulated")
	}
	c.ResetStats()
	if s := c.Stats(0); s != (Stats{}) {
		t.Fatalf("stats not reset: %+v", s)
	}
}

// A released owner leaves the owner list, reads as idle, keeps its
// configuration and stats, and rejoins in order on its next Request.
func TestReleaseDropsOwner(t *testing.T) {
	c := newTest(t, 2)
	for o := Owner(0); o < 4; o++ {
		c.Request(o, 1e7, 0.7)
	}
	if err := c.SetBudget(2, 1e9); err != nil {
		t.Fatal(err)
	}
	c.Resolve(0.01)
	before := c.Stats(2)
	c.Release(2)
	c.Release(2) // no-op
	c.Release(9) // never registered: no-op
	if !slices.Equal(c.owners, []Owner{0, 1, 3}) {
		t.Fatalf("owners after Release = %v, want [0 1 3]", c.owners)
	}
	res := c.Resolve(0.01)
	if res.LinesOf(2) != 0 || res.RatioOf(2) != 1 || res.LatencyOf(2) != 0 || res.LatencySumOf(2) != 0 {
		t.Fatalf("released owner not idle: lines=%v ratio=%v lat=%v",
			res.LinesOf(2), res.RatioOf(2), res.LatencyOf(2))
	}
	if c.Stats(2) != before || c.Budget(2) != 1e9 {
		t.Fatalf("Release lost state: stats %+v (was %+v), budget %v", c.Stats(2), before, c.Budget(2))
	}
	c.Request(2, 1e7, 0.7)
	if !slices.Equal(c.owners, []Owner{0, 1, 2, 3}) {
		t.Fatalf("owners after re-touch = %v, want [0 1 2 3]", c.owners)
	}
}

// FuzzResolveMatchesReference drives the controller and the original
// dense arbiter (reference_test.go) through one script — 1 to 3 sockets,
// homes, remote fractions, budgets, an interconnect cap, requests, and
// owners released after a step and touched again later — and requires
// every Resolution accessor and every Stats field to match the
// reference bit for bit after each step.
func FuzzResolveMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		script := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(script)
		f.Add(uint8(i), uint8(rng.Intn(4)*rng.Intn(256)), script)
	}
	f.Fuzz(func(t *testing.T, topo, link uint8, script []byte) {
		const owners = 12
		cfg := DefaultNUMAConfig(1 + int(topo)%3)
		cfg.InterSocketBandwidth = float64(link) * 1e8 // 0: unbounded
		c, ref := MustNew(cfg), newRef(cfg)
		steps := [...]float64{0.01, 0.001, 1}
		same := func(step int, o Owner, what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d owner %d %s = %v, reference %v", step, o, what, got, want)
			}
		}
		step := 0
		resolve := func(dt float64) {
			step++
			r, rr := c.Resolve(dt), ref.Resolve(dt)
			for o := Owner(-1); o <= owners; o++ {
				same(step, o, "LinesOf", r.LinesOf(o), rr.LinesOf(o))
				same(step, o, "RatioOf", r.RatioOf(o), rr.RatioOf(o))
				same(step, o, "LatencyOf", r.LatencyOf(o), rr.LatencyOf(o))
				same(step, o, "LatencySumOf", r.LatencySumOf(o), rr.LatencySumOf(o))
				s, rs := c.Stats(o), ref.Stats(o)
				same(step, o, "Requested", s.Requested, rs.Requested)
				same(step, o, "Delivered", s.Delivered, rs.Delivered)
				same(step, o, "Bytes", s.Bytes, rs.Bytes)
				same(step, o, "LatencySum", s.LatencySum, rs.LatencySum)
			}
		}
		for ; len(script) >= 3; script = script[3:] {
			op, o, v := script[0]%6, Owner(script[1]%owners), script[2]
			switch op {
			case 0:
				_, _ = c.SetHome(o, int(v)%cfg.Sockets), ref.SetHome(o, int(v)%cfg.Sockets)
			case 1:
				_, _ = c.SetRemoteFraction(o, float64(v)/255), ref.SetRemoteFraction(o, float64(v)/255)
			case 2:
				b := float64(v%4) * cfg.ChannelBandwidth / 2 // 0 clears
				_, _ = c.SetBudget(o, b), ref.SetBudget(o, b)
			case 3, 4:
				// Up to four sockets' worth of one step's capacity.
				bytes := float64(v) * cfg.SocketCapacity() * cfg.LineBytes * 0.01 / 64
				hit := float64(v%11) / 10
				c.Request(o, bytes, hit)
				ref.Request(o, bytes, hit)
			case 5:
				resolve(steps[int(v)%len(steps)])
				if v&4 != 0 {
					c.Release(o)
				}
			}
		}
		resolve(0.01)
	})
}

func BenchmarkResolve1024VMs(b *testing.B) {
	cfg := DefaultNUMAConfig(2)
	cfg.ChannelsPerSocket = 4
	c := MustNew(cfg)
	const n = 1024
	for o := Owner(0); o < n; o++ {
		_ = c.SetHome(o, int(o)%2)
		_ = c.SetRemoteFraction(o, float64(int(o)%4)/10)
	}
	for o := Owner(0); o < n; o++ {
		c.Request(o, 1e6, 0.7)
	}
	c.Resolve(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for o := Owner(0); o < n; o++ {
			c.Request(o, 1e6, 0.7)
		}
		c.Resolve(0.01)
	}
}
