package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"memdos/internal/attack"
	"memdos/internal/core"
	"memdos/internal/mem"
	"memdos/internal/pcm"
	"memdos/internal/respond"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// thresholdDetector is a minimal deterministic detector for cluster
// tests: it alarms after `need` consecutive samples whose AccessNum
// collapsed below 60% of the clean expectation (the bus-lock signature)
// and clears after `need` consecutive recovered samples.
type thresholdDetector struct {
	expect       float64
	need         int
	below, above int
	raised       bool
}

func (d *thresholdDetector) Name() string { return "threshold" }

func (d *thresholdDetector) Push(s pcm.Sample) []core.Decision {
	if s.AccessNum < 0.6*d.expect {
		d.below++
		d.above = 0
	} else {
		d.above++
		d.below = 0
	}
	switch {
	case !d.raised && d.below >= d.need:
		d.raised = true
		return []core.Decision{{Time: s.Time, Alarm: true}}
	case d.raised && d.above >= d.need:
		d.raised = false
		return []core.Decision{{Time: s.Time, Alarm: false}}
	}
	return nil
}

// testDetectorFactory builds thresholdDetectors from workload specs.
func testDetectorFactory(tpcm float64) func(app string) (core.Detector, error) {
	return func(app string) (core.Detector, error) {
		spec, err := workload.ByAbbrev(app)
		if err != nil {
			return nil, err
		}
		return &thresholdDetector{expect: spec.BaseAccessRate * tpcm, need: 5}, nil
	}
}

// busLock returns an always-on bus-locking attacker.
func busLock(t *testing.T) *attack.Attacker {
	t.Helper()
	atk, err := attack.NewBusLock(attack.Window{Start: 0, End: math.Inf(1)}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return atk
}

// populate fills the cluster with victims, targeted attackers and
// utilities in a fixed order.
func populate(t *testing.T, c *Cluster, victims, attackers, utilities int) {
	t.Helper()
	for i := 0; i < victims; i++ {
		if err := c.AddVictim(fmt.Sprintf("victim%02d", i), "KM"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < attackers; i++ {
		target := fmt.Sprintf("victim%02d", i%victims)
		if err := c.AddAttacker(fmt.Sprintf("attacker%02d", i), busLock(t), target); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < utilities; i++ {
		if err := c.AddUtility(fmt.Sprintf("util%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshot serializes everything observable about a finished run: the
// result plus every VM's final location.
func snapshot(t *testing.T, c *Cluster, res *Result) []byte {
	t.Helper()
	locs := make(map[string]string)
	names := make([]string, 0, len(c.recs))
	for _, rec := range c.recs {
		names = append(names, rec.name)
	}
	sort.Strings(names)
	for _, n := range names {
		h, ok := c.Locate(n)
		if !ok {
			t.Fatalf("VM %s has no location", n)
		}
		locs[n] = c.HostName(h)
	}
	b, err := json.Marshal(struct {
		Res  *Result
		Locs map[string]string
	}{res, locs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterDeterminismAcrossWorkers is the cluster's determinism
// contract: a full closed-loop run — parallel host stepping, detector
// sessions, respond ladder driving real migrations, targeted attacker
// chases — is byte-identical at any worker count. On 8 hosts the worker
// counts give host ranges of unequal length (3, 5) and more workers than
// hosts (13).
func TestClusterDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) []byte {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Scheduler = Spread
		cfg.Placement = AttackTargeted
		cfg.RelocationDelay = 10
		cfg.Detector = testDetectorFactory(cfg.Host.TPCM)
		cfg.Respond = quickLadder()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, c, 4, 2, 8)
		res, err := c.Run(45)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot(t, c, res)
	}
	serial := run(1)
	if !json.Valid(serial) {
		t.Fatalf("snapshot is not valid JSON: %s", serial)
	}
	for _, workers := range []int{2, 3, 5, 8, 13} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if parallel := run(workers); !bytes.Equal(serial, parallel) {
				t.Fatalf("cluster run differs between 1 and %d workers:\n 1: %s\n %d: %s", workers, serial, workers, parallel)
			}
		})
	}
}

// TestRunDuration pins Run's handling of its duration: a negative, NaN
// or infinite duration is an error rather than a near-endless run, and a
// zero-length run of a populated cluster summarizes to finite fractions
// that JSON can encode. Each case runs under a deadline so a Run that
// never returns fails instead of hanging the package.
func TestRunDuration(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dur     float64
		wantErr bool
	}{
		{"negative", -1, true},
		{"NaN", math.NaN(), true},
		{"+Inf", math.Inf(1), true},
		{"zero", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Hosts = 2
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			populate(t, c, 2, 1, 1)
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := c.Run(tc.dur)
				done <- outcome{res, err}
			}()
			var got outcome
			select {
			case got = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("Run(%v) did not return within 10 s", tc.dur)
			}
			if tc.wantErr {
				if got.err == nil {
					t.Fatalf("Run(%v) = %+v, want an error", tc.dur, got.res)
				}
				return
			}
			if got.err != nil {
				t.Fatal(got.err)
			}
			if got.res.MeanVictimSpeed != 0 || got.res.AlarmFraction != 0 {
				t.Errorf("zero-length run: MeanVictimSpeed %v, AlarmFraction %v, want 0 and 0", got.res.MeanVictimSpeed, got.res.AlarmFraction)
			}
			if _, err := json.Marshal(got.res); err != nil {
				t.Fatalf("zero-length result does not marshal: %v", err)
			}
		})
	}
}

// TestPlacementPolicies pins each scheduler's placement shape.
func TestPlacementPolicies(t *testing.T) {
	build := func(p SchedulerPolicy, capacity int) *Cluster {
		cfg := DefaultConfig()
		cfg.Hosts = 4
		cfg.Scheduler = p
		cfg.HostCapacity = capacity
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := c.AddUtility(fmt.Sprintf("u%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	counts := func(c *Cluster) []int {
		out := make([]int, len(c.hosts))
		for i, h := range c.hosts {
			out[i] = h.residents()
		}
		return out
	}

	// Round-robin and spread both yield an even 2/2/2/2 (spread ties
	// break toward the emptiest host).
	for _, p := range []SchedulerPolicy{RoundRobin, Spread} {
		c := build(p, 16)
		for i, n := range counts(c) {
			if n != 2 {
				t.Errorf("%v: host %d has %d residents, want 2", p, i, n)
			}
		}
	}
	// Bin-pack with capacity 3 fills hosts in order: 3/3/2/0.
	c := build(BinPack, 3)
	if got, want := fmt.Sprint(counts(c)), "[3 3 2 0]"; got != want {
		t.Errorf("bin-pack residents = %s, want %s", got, want)
	}
}

// TestConfigTakesValuesAsGiven: the relocation delay, churn interval and
// host capacity are DefaultConfig's to set; New refuses a non-positive
// one instead of replacing it.
func TestConfigTakesValuesAsGiven(t *testing.T) {
	def := DefaultConfig()
	if def.RelocationDelay != 120 || def.ChurnInterval != 60 || def.HostCapacity != 16 {
		t.Errorf("default config: relocation %v, churn %v, capacity %d; want 120, 60, 16",
			def.RelocationDelay, def.ChurnInterval, def.HostCapacity)
	}
	for _, bad := range []func(*Config){
		func(c *Config) { c.RelocationDelay = 0 },
		func(c *Config) { c.RelocationDelay = math.NaN() },
		func(c *Config) { c.ChurnInterval = 0 },
		func(c *Config) { c.ChurnInterval = -1 },
		func(c *Config) { c.HostCapacity = 0 },
		func(c *Config) { c.HostCapacity = -1 },
	} {
		cfg := DefaultConfig()
		bad(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("relocation %v, churn %v, capacity %d accepted",
				cfg.RelocationDelay, cfg.ChurnInterval, cfg.HostCapacity)
		}
	}
}

// TestMigrateVMDowntime checks in-flight accounting: with transit
// downtime the VM leaves its source immediately but lands only at the
// first sync quantum past the downtime.
func TestMigrateVMDowntime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 2
	cfg.Scheduler = RoundRobin
	cfg.Downtime = 1.0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddVictim("v", "KM"); err != nil {
		t.Fatal(err)
	}
	src, _ := c.Locate("v")
	dest, err := c.MigrateVM("v")
	if err != nil {
		t.Fatal(err)
	}
	if dest == c.HostName(src) {
		t.Fatalf("migrated to source host %s", dest)
	}
	if _, ok := c.Locate("v"); ok {
		t.Fatal("VM located while in transit")
	}
	if _, err := c.MigrateVM("v"); err == nil {
		t.Fatal("second migration of in-flight VM succeeded")
	}
	if _, err := c.Run(0.5); err != nil { // downtime not yet elapsed
		t.Fatal(err)
	}
	if _, ok := c.Locate("v"); ok {
		t.Fatal("VM landed before downtime elapsed")
	}
	if _, err := c.Run(1.5); err != nil {
		t.Fatal(err)
	}
	h, ok := c.Locate("v")
	if !ok || c.HostName(h) != dest {
		t.Fatalf("VM at %v (ok=%v), want %s", h, ok, dest)
	}
}

// TestActuatorReleasesOnOldHost pins the stale-host release hazard for
// every mitigation kind: a throttle, a bandwidth budget and a partition
// applied on host A must be undone on host A even after the victim
// migrated to host B in between. The hosts run the DRAM model so the
// bandwidth budget has a controller to land on.
func TestActuatorReleasesOnOldHost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 3
	cfg.Scheduler = RoundRobin
	cfg.Placement = AttackTargeted
	numa := mem.DefaultNUMAConfig(1)
	cfg.Host.Mem = &numa
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddVictim("v", "KM"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddAttacker("a", busLock(t), "v"); err != nil {
		t.Fatal(err)
	}
	act := &actuator{c: c}
	set := func(duty, bytesPerSec float64, partition bool) {
		t.Helper()
		if err := act.Throttle("v", duty); err != nil {
			t.Fatal(err)
		}
		if err := act.LimitBandwidth("v", bytesPerSec); err != nil {
			t.Fatal(err)
		}
		if err := act.Partition("v", partition); err != nil {
			t.Fatal(err)
		}
	}
	aRec := c.byName["a"]
	oldSrv := c.hosts[aRec.host].srv
	// The server stores both limits verbatim, so they compare exactly.
	check := func(when string, duty, bytesPerSec float64, partition bool) {
		t.Helper()
		if got := oldSrv.ExecThrottle(aRec.id); got != duty {
			t.Errorf("%s: attacker throttle = %v, want %v", when, got, duty)
		}
		if got := oldSrv.MemBandwidthLimit(aRec.id); got != bytesPerSec {
			t.Errorf("%s: attacker bandwidth budget = %v, want %v", when, got, bytesPerSec)
		}
		if got := oldSrv.CachePartitioned(aRec.id); got != partition {
			t.Errorf("%s: attacker partitioned = %v, want %v", when, got, partition)
		}
	}
	set(0.5, 2e9, true)
	check("applied", 0.5, 2e9, true)
	// Victim leaves; the engine then releases the session's mitigation.
	if _, err := act.Migrate("v"); err != nil {
		t.Fatal(err)
	}
	set(0, 0, false)
	check("released on old host after migration", 0, 0, false)
	if left := act.applied["v"]; len(left) != 0 {
		t.Errorf("session still records %d applied entries after release", len(left))
	}
}

// memOwners reads the length of a server's DRAM controller owner list —
// the owners its Resolve walks every tick.
func memOwners(srv *vmm.Server) int {
	return reflect.ValueOf(srv).Elem().FieldByName("mc").Elem().FieldByName("owners").Len()
}

// TestActuatorReleaseOnHuskKeepsItOffTheArbiter: a bandwidth budget
// applied to an attacker that then churned away is released on the
// attacker's husk. The release succeeds and must not put the husk back on
// the old host's memory-controller owner list.
func TestActuatorReleaseOnHuskKeepsItOffTheArbiter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 2
	cfg.Placement = AttackTargeted
	numa := mem.DefaultNUMAConfig(1)
	cfg.Host.Mem = &numa
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddVictim("v", "KM"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddAttacker("a", busLock(t), "v"); err != nil {
		t.Fatal(err)
	}
	act := &actuator{c: c}
	if err := act.LimitBandwidth("v", 2e9); err != nil {
		t.Fatal(err)
	}
	aRec := c.byName["a"]
	oldSrv := c.hosts[aRec.host].srv
	if err := c.moveVM(aRec, 1-aRec.host, 0); err != nil {
		t.Fatal(err)
	}
	owners := memOwners(oldSrv)
	if err := act.LimitBandwidth("v", 0); err != nil {
		t.Fatalf("release on husk: %v", err)
	}
	if got := memOwners(oldSrv); got != owners {
		t.Fatalf("release on husk re-registered it: %d memory-controller owners, want %d", got, owners)
	}
}

// quickLadder is a fast-escalating respond config for short test runs:
// one throttle rung, then migrate.
func quickLadder() respond.Config {
	cfg := respond.DefaultConfig()
	cfg.ThrottleDuties = []float64{0.5}
	cfg.EnablePartition = false
	cfg.EnableMigration = true
	cfg.EscalateAfter = 2
	cfg.ClearAfter = 5
	cfg.Cooldown = 30
	return cfg
}

// TestClosedLoopMigratesVictimToCleanHost is the tentpole end-to-end
// check: detect on host A, drain the victim to a clean host B, recover
// its speed. The attacker's re-co-location is pushed past the horizon so
// the escape is decisive.
func TestClosedLoopMigratesVictimToCleanHost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 4
	cfg.Scheduler = Spread
	cfg.Placement = AttackTargeted
	cfg.RelocationDelay = 1e6
	cfg.Detector = testDetectorFactory(cfg.Host.TPCM)
	cfg.Respond = quickLadder()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddVictim("v", "KM"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddAttacker("a", busLock(t), "v"); err != nil {
		t.Fatal(err)
	}
	origin, _ := c.Locate("v")
	res, err := c.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations < 1 {
		t.Fatalf("no defender migration happened: %+v", res)
	}
	vHost, ok := c.Locate("v")
	if !ok {
		t.Fatal("victim in transit at end of run")
	}
	aHost, _ := c.Locate("a")
	if vHost == aHost {
		t.Fatalf("victim still co-resident with attacker on host %d", vHost)
	}
	if vHost == origin {
		t.Fatalf("victim still on original host %d", origin)
	}
	// The victim spent most of the run on a clean host at full speed.
	if res.MeanVictimSpeed < 0.8 {
		t.Errorf("mean victim speed %.3f, want >= 0.8 after escape", res.MeanVictimSpeed)
	}
	if res.Respond.Migrations == 0 {
		t.Errorf("respond stats recorded no migration: %+v", res.Respond)
	}
}

// TestChurnAttackersMove checks the churn policy relocates attackers on
// schedule without any detector in the loop.
func TestChurnAttackersMove(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 8
	cfg.Placement = AttackChurn
	cfg.ChurnInterval = 5
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c, 2, 3, 4)
	res, err := c.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackerMoves == 0 {
		t.Fatalf("churn produced no attacker moves: %+v", res)
	}
}
