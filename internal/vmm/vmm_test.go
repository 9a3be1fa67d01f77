package vmm

import (
	"math"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/stats"
	"memdos/internal/workload"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{TPCM: 0}); err == nil {
		t.Error("TPCM=0 accepted")
	}
	if _, err := NewServer(Config{TPCM: 0.01, MissPenalty: -1}); err == nil {
		t.Error("negative penalty accepted")
	}
}

func TestAddVMsAssignIDs(t *testing.T) {
	s := newServer(t)
	v1, err := s.AddApp("victim", workload.MustByAbbrev("KM"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := attack.NewBusLock(attack.Never{}, 0.7)
	v2, err := s.AddAttacker("attacker", a)
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID() != 0 || v2.ID() != 1 {
		t.Errorf("ids = %d, %d", v1.ID(), v2.ID())
	}
	if len(s.VMs()) != 2 {
		t.Errorf("VMs() len = %d", len(s.VMs()))
	}
	if s.Counter(v1.ID()) == nil || s.Counter(v2.ID()) == nil {
		t.Error("counters missing")
	}
	if _, err := s.AddAttacker("nil", nil); err == nil {
		t.Error("nil attacker accepted")
	}
}

// runVictim builds a server with victim + attacker + one utility VM, runs
// it for dur seconds, and returns the victim VM.
func runVictim(t *testing.T, app string, atk *attack.Attacker, dur float64) (*Server, *VM) {
	t.Helper()
	s := newServer(t)
	victim, err := s.AddApp("victim", workload.MustByAbbrev(app))
	if err != nil {
		t.Fatal(err)
	}
	if atk != nil {
		if _, err := s.AddAttacker("attacker", atk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddApp("util", workload.Utility()); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(dur, nil)
	return s, victim
}

func TestCleanRunProducesSamples(t *testing.T) {
	s, victim := runVictim(t, "KM", nil, 5)
	c := s.Counter(victim.ID())
	if got := c.Samples(); got != 500 {
		t.Errorf("samples after 5s at 10ms = %d, want 500", got)
	}
	if mean := stats.Mean(c.AccessSeries().Values); mean <= 0 {
		t.Errorf("mean AccessNum = %v", mean)
	}
}

func TestBusLockDropsAccessNum(t *testing.T) {
	atk, _ := attack.NewBusLock(attack.Window{Start: 30, End: 60}, 0.7)
	s, victim := runVictim(t, "KM", atk, 60)
	acc := s.Counter(victim.ID()).AccessSeries()
	before := acc.Window(5, 30).Mean()
	during := acc.Window(35, 60).Mean()
	// Observation (1): significant AccessNum decrease; with duty 0.7 the
	// victim should retain ~30% of its accesses.
	if during > 0.45*before {
		t.Errorf("bus lock AccessNum: before %v, during %v — insufficient drop", before, during)
	}
	if during < 0.15*before {
		t.Errorf("bus lock AccessNum collapsed too far: %v vs %v", during, before)
	}
}

func TestCleansingRaisesMissNum(t *testing.T) {
	atk, _ := attack.NewLLCCleansing(attack.Window{Start: 30, End: 60}, 0.6, 2e6)
	s, victim := runVictim(t, "KM", atk, 60)
	miss := s.Counter(victim.ID()).MissSeries()
	before := miss.Window(5, 30).Mean()
	during := miss.Window(35, 60).Mean()
	// Observation (1): significant MissNum increase (several-fold).
	if during < 2.5*before {
		t.Errorf("cleansing MissNum: before %v, during %v — insufficient rise", before, during)
	}
}

func TestAttackSlowsVictimProgress(t *testing.T) {
	atk, _ := attack.NewBusLock(attack.Always{}, 0.7)
	_, attacked := runVictim(t, "KM", atk, 30)
	_, clean := runVictim(t, "KM", nil, 30)
	ratio := clean.App().Work() / attacked.App().Work()
	// Duty 0.7 should slow the victim roughly 3x (paper reports up to
	// 3.7x for Hadoop workloads).
	if ratio < 2 || ratio > 5 {
		t.Errorf("bus lock slowdown = %vx, want ~3x", ratio)
	}
}

func TestThrottleOthersPausesAllButProtected(t *testing.T) {
	s := newServer(t)
	victim, _ := s.AddApp("victim", workload.MustByAbbrev("KM"))
	other, _ := s.AddApp("other", workload.MustByAbbrev("BA"))
	s.RunUntil(1, nil)
	if err := s.ThrottleOthers(victim.ID(), 1); err != nil {
		t.Fatal(err)
	}
	if !s.Throttled(other.ID()) || s.Throttled(victim.ID()) {
		t.Error("throttle state wrong")
	}
	otherWork := other.App().Work()
	victimWork := victim.App().Work()
	s.RunUntil(2, nil)
	if other.App().Work() != otherWork {
		t.Error("throttled VM made progress")
	}
	if victim.App().Work() <= victimWork {
		t.Error("protected VM made no progress")
	}
	// Throttle expires.
	s.RunUntil(3, nil)
	if other.App().Work() <= otherWork {
		t.Error("VM still paused after throttle expired")
	}
	if err := s.ThrottleOthers(victim.ID(), 0); err == nil {
		t.Error("zero-duration throttle accepted")
	}
}

func TestThrottlePausesAttacker(t *testing.T) {
	// Reference samples gathered under throttling must be attack-free.
	atk, _ := attack.NewBusLock(attack.Always{}, 0.7)
	s := newServer(t)
	victim, _ := s.AddApp("victim", workload.MustByAbbrev("KM"))
	attackVM, _ := s.AddAttacker("attacker", atk)
	s.RunUntil(2, nil)
	accDuringAttack := s.Counter(victim.ID()).AccessSeries().Window(1, 2).Mean()
	s.ThrottleOthers(victim.ID(), 1)
	s.RunUntil(3, nil)
	accDuringThrottle := s.Counter(victim.ID()).AccessSeries().Window(2.2, 3).Mean()
	if accDuringThrottle < 2*accDuringAttack {
		t.Errorf("throttling did not pause the attack: %v vs %v", accDuringThrottle, accDuringAttack)
	}
	if s.Throttled(victim.ID()) {
		t.Error("victim throttled")
	}
	_ = attackVM
}

func TestHypervisorLoadSlowsApps(t *testing.T) {
	sLoaded := newServer(t)
	vLoaded, _ := sLoaded.AddApp("v", workload.MustByAbbrev("KM"))
	if err := sLoaded.SetHypervisorLoad(0.05); err != nil {
		t.Fatal(err)
	}
	sLoaded.RunUntil(30, nil)

	sClean := newServer(t)
	vClean, _ := sClean.AddApp("v", workload.MustByAbbrev("KM"))
	sClean.RunUntil(30, nil)

	ratio := vClean.App().Work() / vLoaded.App().Work()
	if math.Abs(ratio-1/0.95) > 0.01 {
		t.Errorf("5%% load slowdown ratio = %v, want ~1.053", ratio)
	}
	if err := sLoaded.SetHypervisorLoad(-0.1); err == nil {
		t.Error("negative load accepted")
	}
	if err := sLoaded.SetHypervisorLoad(1); err == nil {
		t.Error("load=1 accepted")
	}
}

func TestFiniteAppCompletes(t *testing.T) {
	spec := workload.Spec{Name: "short", Abbrev: "short", BaseAccessRate: 1e6, WorkSeconds: 2}
	s := newServer(t)
	vm, err := s.AddApp("short", spec)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(5, nil)
	if vm.DoneAt() == 0 {
		t.Fatal("app never completed")
	}
	if math.Abs(vm.DoneAt()-2) > 0.1 {
		t.Errorf("completion at %v, want ~2", vm.DoneAt())
	}
	// Completed apps stop demanding memory.
	acc := s.Counter(vm.ID()).AccessSeries()
	if tail := acc.Window(3, 5).Mean(); tail != 0 {
		t.Errorf("completed app still shows accesses: %v", tail)
	}
}

func TestCompletionDelayedUnderAttack(t *testing.T) {
	spec := workload.Spec{Name: "short", Abbrev: "short", BaseAccessRate: 1e6, WorkSeconds: 5}
	mk := func(withAttack bool) float64 {
		s := newServer(t)
		vm, _ := s.AddApp("short", spec)
		if withAttack {
			atk, _ := attack.NewBusLock(attack.Always{}, 0.7)
			s.AddAttacker("attacker", atk)
		}
		s.RunUntil(60, nil)
		return vm.DoneAt()
	}
	clean, attacked := mk(false), mk(true)
	if clean == 0 || attacked == 0 {
		t.Fatal("apps did not finish")
	}
	if attacked < 2.5*clean {
		t.Errorf("attacked completion %v vs clean %v: expected ~3x stretch", attacked, clean)
	}
}

func TestOnStepCallback(t *testing.T) {
	s := newServer(t)
	s.AddApp("v", workload.MustByAbbrev("KM"))
	calls := 0
	samples := 0
	s.RunUntil(1, func(res StepResult) {
		calls++
		samples += len(res.Samples)
	})
	if calls != 100 {
		t.Errorf("onStep called %d times, want 100", calls)
	}
	if samples != 100 {
		t.Errorf("%d samples over 1s, want 100", samples)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := MustNewServer(DefaultConfig())
		vm, _ := s.AddApp("v", workload.MustByAbbrev("TS"))
		s.RunUntil(10, nil)
		return s.Counter(vm.ID()).AccessSeries().Values
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed servers diverged at sample %d", i)
		}
	}
}

func TestPeriodStretchUnderCleansing(t *testing.T) {
	// Observation (2) end-to-end: FaceNet's batch period elongates under
	// the cleansing attack.
	atk, _ := attack.NewLLCCleansing(attack.Window{Start: 60, End: 120}, 0.6, 2e6)
	s, victim := runVictim(t, "FN", atk, 120)
	acc := s.Counter(victim.ID()).AccessSeries()
	// Victim speed during attack must be < 1.
	if victim.LastSpeed() >= 0.9 {
		t.Errorf("victim speed under cleansing = %v, want < 0.9", victim.LastSpeed())
	}
	if acc.Len() != 12000 {
		t.Fatalf("expected 12000 samples, got %d", acc.Len())
	}
}

func TestExecThrottleValidation(t *testing.T) {
	s := newServer(t)
	vm, _ := s.AddApp("v", workload.MustByAbbrev("KM"))
	if err := s.SetExecThrottle(vm.ID(), -0.1); err == nil {
		t.Error("negative throttle accepted")
	}
	if err := s.SetExecThrottle(vm.ID(), 1); err == nil {
		t.Error("throttle of 1 accepted")
	}
	if err := s.SetExecThrottle(99, 0.5); err == nil {
		t.Error("unknown VM accepted")
	}
	if err := s.SetCachePartition(99, true); err == nil {
		t.Error("partition of unknown VM accepted")
	}
	if err := s.SetExecThrottle(vm.ID(), 0.5); err != nil {
		t.Fatal(err)
	}
	if got := s.ExecThrottle(vm.ID()); got != 0.5 {
		t.Errorf("ExecThrottle = %v, want 0.5", got)
	}
	if err := s.SetExecThrottle(vm.ID(), 0); err != nil {
		t.Fatal(err)
	}
	if got := s.ExecThrottle(vm.ID()); got != 0 {
		t.Errorf("cleared ExecThrottle = %v, want 0", got)
	}
	if err := s.SetCachePartition(vm.ID(), true); err != nil {
		t.Fatal(err)
	}
	if !s.CachePartitioned(vm.ID()) {
		t.Error("partition not recorded")
	}
	if err := s.SetCachePartition(vm.ID(), false); err != nil {
		t.Fatal(err)
	}
	if s.CachePartitioned(vm.ID()) {
		t.Error("partition not cleared")
	}
}

// TestExecThrottleRecoversVictim: throttling a bus-locking attacker gives
// the co-located victim most of its AccessNum and progress back — the
// mitigation primitive the respond ladder builds on.
func TestExecThrottleRecoversVictim(t *testing.T) {
	run := func(thr float64) (accessMean, work float64) {
		s := newServer(t)
		victim, _ := s.AddApp("victim", workload.MustByAbbrev("KM"))
		atk, _ := attack.NewBusLock(attack.Always{}, 0.7)
		atkVM, _ := s.AddAttacker("attacker", atk)
		if thr > 0 {
			if err := s.SetExecThrottle(atkVM.ID(), thr); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(30, nil)
		return s.Counter(victim.ID()).AccessSeries().Window(5, 30).Mean(), victim.App().Work()
	}
	accFull, workFull := run(0)
	accThr, workThr := run(0.75)
	if accThr <= accFull {
		t.Errorf("victim AccessNum did not recover: full %v, throttled %v", accFull, accThr)
	}
	if workThr <= workFull {
		t.Errorf("victim progress did not recover: full %v, throttled %v", workFull, workThr)
	}
	// Duty 0.7 * (1-0.75) leaves an effective duty of ~0.175 — the victim
	// should be close to clean speed.
	_, workClean := func() (float64, float64) {
		s := newServer(t)
		victim, _ := s.AddApp("victim", workload.MustByAbbrev("KM"))
		s.RunUntil(30, nil)
		return 0, victim.App().Work()
	}()
	if workThr < 0.6*workClean {
		t.Errorf("throttled-attacker victim work %v, want >= 60%% of clean %v", workThr, workClean)
	}
}

// TestExecThrottleSlowsTarget: throttling an application VM slows that
// VM itself (the cost side of misdirected mitigation).
func TestExecThrottleSlowsTarget(t *testing.T) {
	run := func(thr float64) float64 {
		s := newServer(t)
		vm, _ := s.AddApp("v", workload.MustByAbbrev("KM"))
		if thr > 0 {
			if err := s.SetExecThrottle(vm.ID(), thr); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(10, nil)
		return vm.App().Work()
	}
	full, half := run(0), run(0.5)
	ratio := half / full
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("0.5-throttled VM did %.0f%% of clean work, want ~50%%", 100*ratio)
	}
}

// TestCachePartitionContainsCleansing: partitioning the cleansing
// attacker keeps the victim's miss ratio near the clean baseline, but
// does nothing against bus locking.
func TestCachePartitionContainsCleansing(t *testing.T) {
	run := func(mkAtk func() *attack.Attacker, partition bool) (missMean, accMean float64) {
		s := newServer(t)
		victim, _ := s.AddApp("victim", workload.MustByAbbrev("KM"))
		atkVM, _ := s.AddAttacker("attacker", mkAtk())
		if partition {
			if err := s.SetCachePartition(atkVM.ID(), true); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(30, nil)
		c := s.Counter(victim.ID())
		return c.MissSeries().Window(5, 30).Mean(), c.AccessSeries().Window(5, 30).Mean()
	}
	cleansing := func() *attack.Attacker {
		a, _ := attack.NewLLCCleansing(attack.Always{}, 0.6, 2e6)
		return a
	}
	missOpen, _ := run(cleansing, false)
	missPart, _ := run(cleansing, true)
	if missPart > 0.5*missOpen {
		t.Errorf("partition did not contain cleansing: open %v, partitioned %v", missOpen, missPart)
	}

	buslock := func() *attack.Attacker {
		a, _ := attack.NewBusLock(attack.Always{}, 0.7)
		return a
	}
	_, accOpen := run(buslock, false)
	_, accPart := run(buslock, true)
	if math.Abs(accPart-accOpen) > 0.05*accOpen {
		t.Errorf("partition affected bus locking: open %v, partitioned %v", accOpen, accPart)
	}
}

// testbedServer builds the topology of the Scenario 1 runs: one victim,
// one bus-locking attacker, seven utility VMs.
func testbedServer(tb testing.TB) *Server {
	tb.Helper()
	s := MustNewServer(DefaultConfig())
	if _, err := s.AddApp("victim", workload.MustByAbbrev("BA").Service()); err != nil {
		tb.Fatal(err)
	}
	atk, err := attack.NewBusLock(attack.Always{}, 0.7)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.AddAttacker("attacker", atk); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := s.AddApp("util", workload.Utility()); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

func TestStepNoAllocs(t *testing.T) {
	// The per-tick loop of the testbed must not allocate once its
	// scratch has grown. What is left is the counters' recorded trace
	// series doubling (trace.Series.Append), far less than once a tick,
	// so the contract is the average over many ticks.
	s := testbedServer(t)
	for i := 0; i < 100; i++ {
		s.Step() // grow scratch
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg != 0 {
		t.Errorf("Step allocates %.2f objects/tick in steady state, want 0", avg)
	}
}

func BenchmarkServerStep(b *testing.B) {
	s := testbedServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
