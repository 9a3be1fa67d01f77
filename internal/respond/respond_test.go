package respond

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// call is one recorded actuator invocation.
type call struct {
	kind string
	sess string
	duty float64
	on   bool
	dest string
}

// fakeAct records every actuator call; with fail set, all calls error.
type fakeAct struct {
	mu    sync.Mutex
	calls []call
	fail  bool
}

func (f *fakeAct) add(c call) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, c)
	if f.fail {
		return fmt.Errorf("actuator down")
	}
	return nil
}

func (f *fakeAct) Throttle(sess string, duty float64) error {
	return f.add(call{kind: "throttle", sess: sess, duty: duty})
}

func (f *fakeAct) LimitBandwidth(sess string, bytesPerSec float64) error {
	return f.add(call{kind: "membw", sess: sess, duty: bytesPerSec})
}

func (f *fakeAct) Partition(sess string, on bool) error {
	return f.add(call{kind: "partition", sess: sess, on: on})
}

func (f *fakeAct) Migrate(sess string) (MigrateResult, error) {
	err := f.add(call{kind: "migrate", sess: sess, dest: "fake-dst"})
	return MigrateResult{Dest: "fake-dst"}, err
}

func (f *fakeAct) log() []call {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]call(nil), f.calls...)
}

// testConfig is the default ladder with handy short names in tests.
func testConfig() Config { return DefaultConfig() }

func newTestEngine(t *testing.T, cfg Config) (*Engine, *fakeAct) {
	t.Helper()
	act := &fakeAct{}
	eng, err := New(cfg, act)
	if err != nil {
		t.Fatal(err)
	}
	return eng, act
}

func raise(t *testing.T, e *Engine, name string, at float64) {
	t.Helper()
	if err := e.Observe(name, at, true); err != nil {
		t.Fatalf("raise(%s,%v): %v", name, at, err)
	}
}

func clear(t *testing.T, e *Engine, name string, at float64) {
	t.Helper()
	if err := e.Observe(name, at, false); err != nil {
		t.Fatalf("clear(%s,%v): %v", name, at, err)
	}
}

func level(t *testing.T, e *Engine, name string) int {
	t.Helper()
	st, ok := e.State(name)
	if !ok {
		t.Fatalf("session %s unknown", name)
	}
	return st.Level
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{ThrottleDuties: []float64{0.5, 0.25}, EscalateAfter: 1, ClearAfter: 1},
		{ThrottleDuties: []float64{0.5, 0.5}, EscalateAfter: 1, ClearAfter: 1},
		{ThrottleDuties: []float64{0}, EscalateAfter: 1, ClearAfter: 1},
		{ThrottleDuties: []float64{1.5}, EscalateAfter: 1, ClearAfter: 1},
		{ThrottleDuties: []float64{0.5}, EscalateAfter: 0, ClearAfter: 1},
		{ThrottleDuties: []float64{0.5}, EscalateAfter: 1, ClearAfter: 0},
		{ThrottleDuties: []float64{0.5}, EscalateAfter: 1, ClearAfter: 1, Cooldown: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("nil actuator accepted")
	}
}

func TestLadderGeometry(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig())
	if eng.MaxLevel() != 5 {
		t.Fatalf("MaxLevel = %d, want 5", eng.MaxLevel())
	}
	want := []string{"idle", "throttle(0.25)", "throttle(0.50)", "throttle(0.75)", "partition", "migrate"}
	if got := eng.Ladder(); !reflect.DeepEqual(got, want) {
		t.Errorf("Ladder = %v, want %v", got, want)
	}

	cfg := testConfig()
	cfg.EnablePartition, cfg.EnableMigration = false, false
	throttleOnly, _ := newTestEngine(t, cfg)
	if throttleOnly.MaxLevel() != 3 {
		t.Errorf("throttle-only MaxLevel = %d, want 3", throttleOnly.MaxLevel())
	}
}

// TestEscalationLadder walks a sustained alarm through every rung:
// raise → throttle 0.25 → 0.5 → 0.75 → partition → migrate-and-release.
func TestEscalationLadder(t *testing.T) {
	eng, act := newTestEngine(t, testConfig())
	raise(t, eng, "vm", 0)
	if got := level(t, eng, "vm"); got != 1 {
		t.Fatalf("level after raise = %d, want 1", got)
	}
	eng.Tick(29)
	if got := level(t, eng, "vm"); got != 1 {
		t.Fatalf("level before EscalateAfter = %d, want 1", got)
	}
	eng.Tick(30) // sustained → 0.5
	eng.Tick(60) // sustained → 0.75
	eng.Tick(90) // sustained → partition
	if got := level(t, eng, "vm"); got != 4 {
		t.Fatalf("level at partition rung = %d, want 4", got)
	}
	eng.Tick(120) // sustained → migrate, then full release

	want := []call{
		{kind: "throttle", sess: "vm", duty: 0.25},
		{kind: "throttle", sess: "vm", duty: 0.5},
		{kind: "throttle", sess: "vm", duty: 0.75},
		{kind: "partition", sess: "vm", on: true},
		{kind: "migrate", sess: "vm", dest: "fake-dst"},
		{kind: "partition", sess: "vm", on: false},
		{kind: "throttle", sess: "vm", duty: 0},
	}
	if got := act.log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("actuator calls:\n got %+v\nwant %+v", got, want)
	}
	st, _ := eng.State("vm")
	if st.Level != 0 || st.PeakLevel != 5 || st.Migrations != 1 {
		t.Errorf("post-migration state = %+v", st)
	}
	// The action log records the destination host the actuator reported.
	var mig *Action
	for i, a := range st.Actions {
		if a.Kind == "migrate" {
			mig = &st.Actions[i]
		}
	}
	if mig == nil || mig.Dest != "fake-dst" {
		t.Errorf("migrate action dest = %+v, want fake-dst", mig)
	}

	// The alarm never cleared: after EscalateAfter of continued noise the
	// session re-enters the ladder (migration is not a permanent fix when
	// the adversary re-co-locates).
	eng.Tick(149)
	if got := level(t, eng, "vm"); got != 0 {
		t.Fatalf("re-entered too early: level %d", got)
	}
	eng.Tick(150)
	if got := level(t, eng, "vm"); got != 1 {
		t.Fatalf("no re-entry after sustained alarm: level %d", got)
	}
}

// TestHysteresisBackoff checks the quiet-period de-escalation: hold for
// ClearAfter, then one rung per further ClearAfter.
func TestHysteresisBackoff(t *testing.T) {
	eng, act := newTestEngine(t, testConfig())
	raise(t, eng, "vm", 0)
	eng.Tick(30)
	eng.Tick(60) // level 3 (0.75)
	clear(t, eng, "vm", 65)
	eng.Tick(74) // 9s of quiet: hold
	if got := level(t, eng, "vm"); got != 3 {
		t.Fatalf("backed off before ClearAfter: level %d", got)
	}
	eng.Tick(75)
	if got := level(t, eng, "vm"); got != 2 {
		t.Fatalf("level after first back-off = %d, want 2", got)
	}
	eng.Tick(84)
	if got := level(t, eng, "vm"); got != 2 {
		t.Fatalf("double back-off within one ClearAfter: level %d", got)
	}
	eng.Tick(85) // → 1
	eng.Tick(95) // → 0, full release
	if got := level(t, eng, "vm"); got != 0 {
		t.Fatalf("final level = %d, want 0", got)
	}
	calls := act.log()
	last := calls[len(calls)-1]
	if last.kind != "throttle" || last.duty != 0 {
		t.Errorf("last call = %+v, want release", last)
	}
	st, _ := eng.State("vm")
	if st.Deescalations != 3 {
		t.Errorf("deescalations = %d, want 3", st.Deescalations)
	}
}

// TestFlapCooldown checks the flap guard: a raise shortly after a full
// release re-enters one rung above where the session left the ladder.
func TestFlapCooldown(t *testing.T) {
	eng, act := newTestEngine(t, testConfig())
	raise(t, eng, "vm", 0) // level 1
	clear(t, eng, "vm", 1)
	eng.Tick(11) // release; memory: left at 1, cooldown until 71
	if got := level(t, eng, "vm"); got != 0 {
		t.Fatalf("level after release = %d, want 0", got)
	}

	raise(t, eng, "vm", 20) // within cooldown → enter at 2
	if got := level(t, eng, "vm"); got != 2 {
		t.Fatalf("flap re-entry level = %d, want 2", got)
	}
	st, _ := eng.State("vm")
	lastAct := st.Actions[len(st.Actions)-1]
	if lastAct.Reason != "flap-raise" || lastAct.Duty != 0.5 {
		t.Errorf("flap action = %+v", lastAct)
	}

	clear(t, eng, "vm", 21)
	eng.Tick(31) // → 1
	eng.Tick(41) // → 0; memory: left at 2, cooldown until 101

	raise(t, eng, "vm", 200) // cooldown long expired → normal entry
	if got := level(t, eng, "vm"); got != 1 {
		t.Fatalf("post-cooldown entry level = %d, want 1", got)
	}
	calls := act.log()
	last := calls[len(calls)-1]
	if last.kind != "throttle" || last.duty != 0.25 {
		t.Errorf("post-cooldown call = %+v, want throttle 0.25", last)
	}
}

// TestReRaiseEscalates: an alarm that clears and re-raises while the
// session is still mitigated means the current rung was not enough.
func TestReRaiseEscalates(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig())
	raise(t, eng, "vm", 0)
	clear(t, eng, "vm", 2)
	raise(t, eng, "vm", 5) // still at level 1 (ClearAfter not elapsed)
	if got := level(t, eng, "vm"); got != 2 {
		t.Fatalf("re-raise level = %d, want 2", got)
	}
	st, _ := eng.State("vm")
	lastAct := st.Actions[len(st.Actions)-1]
	if lastAct.Reason != "re-raise" {
		t.Errorf("re-raise action = %+v", lastAct)
	}
}

func TestDuplicateEventsIgnored(t *testing.T) {
	eng, act := newTestEngine(t, testConfig())
	raise(t, eng, "vm", 0)
	raise(t, eng, "vm", 1) // duplicate raise: no escalation
	if got := level(t, eng, "vm"); got != 1 {
		t.Fatalf("level after duplicate raise = %d, want 1", got)
	}
	clear(t, eng, "vm", 2)
	clear(t, eng, "vm", 3) // duplicate clear
	if n := len(act.log()); n != 1 {
		t.Errorf("actuator calls = %d, want 1", n)
	}
	if st := eng.Stats(); st.Events != 4 {
		t.Errorf("events = %d, want 4", st.Events)
	}
}

func TestOverridePauseForceResume(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePartition, cfg.EnableMigration = false, false // maxLevel 3
	eng, act := newTestEngine(t, cfg)

	raise(t, eng, "vm", 0)
	st, err := eng.Pause("vm")
	if err != nil || !st.Paused || st.Level != 0 {
		t.Fatalf("Pause = %+v, %v", st, err)
	}
	calls := act.log()
	if last := calls[len(calls)-1]; last.kind != "throttle" || last.duty != 0 {
		t.Fatalf("pause did not release: %+v", last)
	}
	eng.Tick(100) // alarm still raised, but paused: stays idle
	if got := level(t, eng, "vm"); got != 0 {
		t.Fatalf("paused session mitigated: level %d", got)
	}

	st, err = eng.Resume("vm")
	if err != nil || st.Paused || st.Level != 1 {
		t.Fatalf("Resume (alarm active) = %+v, %v", st, err)
	}

	st, err = eng.Force("vm", 3)
	if err != nil || st.Forced != 3 || st.Level != 3 {
		t.Fatalf("Force(3) = %+v, %v", st, err)
	}
	eng.Tick(200) // forced sessions never auto-transition
	if got := level(t, eng, "vm"); got != 3 {
		t.Fatalf("forced session moved: level %d", got)
	}
	if _, err := eng.Force("vm", 4); err == nil {
		t.Error("force above top accepted")
	}
	if _, err := eng.Force("vm", -2); err == nil {
		t.Error("negative force accepted")
	}

	// Back to auto policy: level is kept, hysteresis resumes after clear.
	if st, err = eng.Force("vm", ForceNone); err != nil || st.Forced != ForceNone || st.Level != 3 {
		t.Fatalf("Force(ForceNone) = %+v, %v", st, err)
	}
	clear(t, eng, "vm", 201)
	eng.Tick(211)
	eng.Tick(221)
	eng.Tick(231)
	if got := level(t, eng, "vm"); got != 0 {
		t.Fatalf("level after resume+clear hysteresis = %d, want 0", got)
	}
}

func TestForceMigrationRungRejected(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig()) // migrate = rung 5
	if _, err := eng.Force("vm", 5); err == nil {
		t.Error("forcing the migration rung accepted")
	}
	if _, err := eng.Force("vm", 4); err != nil {
		t.Errorf("forcing partition rung rejected: %v", err)
	}
}

func TestForget(t *testing.T) {
	eng, act := newTestEngine(t, testConfig())
	raise(t, eng, "vm", 0)
	eng.Forget("vm")
	if _, ok := eng.State("vm"); ok {
		t.Error("session survived Forget")
	}
	calls := act.log()
	if last := calls[len(calls)-1]; last.kind != "throttle" || last.duty != 0 {
		t.Errorf("Forget did not release: %+v", last)
	}
	eng.Forget("vm") // idempotent
	if n := len(eng.States()); n != 0 {
		t.Errorf("states = %d, want 0", n)
	}
}

func TestActuatorErrorsRecorded(t *testing.T) {
	act := &fakeAct{fail: true}
	eng, err := New(testConfig(), act)
	if err != nil {
		t.Fatal(err)
	}
	raise(t, eng, "vm", 0)
	st, _ := eng.State("vm")
	if len(st.Actions) == 0 || st.Actions[0].Err == "" {
		t.Errorf("actuator error not recorded: %+v", st.Actions)
	}
	if got := eng.Stats().ActuatorErrors; got != 1 {
		t.Errorf("actuator errors = %d, want 1", got)
	}
	// Policy still advanced despite the failed actuation.
	if st.Level != 1 {
		t.Errorf("level = %d, want 1", st.Level)
	}
}

// TestMonotonicTime: each session keeps its own time, never behind the
// fleet clock Tick sets and never running backwards.
func TestMonotonicTime(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig())
	raise(t, eng, "a", 10)
	raise(t, eng, "b", 5) // behind a, but b's own time: acts at 5
	clear(t, eng, "a", 12)
	raise(t, eng, "a", 11) // behind a's own time: clamped to 12
	eng.Tick(20)
	raise(t, eng, "c", 15) // behind the fleet clock: clamped to 20
	for name, want := range map[string]float64{"a": 12, "b": 5, "c": 20} {
		st, _ := eng.State(name)
		if n := len(st.Actions); n == 0 || st.Actions[n-1].Time != want {
			t.Errorf("%s acted %+v, want its last action at %v", name, st.Actions, want)
		}
	}
}

// TestSessionClockIsolation: a far-future event on one session leaves
// every other session's ladder as it would be alone, and that session
// still backs off on its own times.
func TestSessionClockIsolation(t *testing.T) {
	drive := func(intruder bool) []Action {
		eng, _ := newTestEngine(t, testConfig())
		raise(t, eng, "a", 10)
		if intruder {
			raise(t, eng, "b", 1e12)
			eng.Advance("ghost", 1e12) // never creates a session
		}
		for at := 11.0; at <= 500; at++ {
			if at == 50 {
				clear(t, eng, "a", at)
				continue
			}
			eng.Advance("a", at)
		}
		if _, ok := eng.State("ghost"); ok {
			t.Error("Advance created a session")
		}
		st, _ := eng.State("a")
		return st.Actions
	}
	alone, beside := drive(false), drive(true)
	if !reflect.DeepEqual(beside, alone) {
		t.Errorf("a beside a far-future session acted %+v, alone %+v", beside, alone)
	}
	if n := len(alone); n < 3 || alone[n-1].Kind != ActionRelease || alone[n-1].Time >= 100 {
		t.Errorf("a alone did not escalate and back off to idle on its own time: %+v", alone)
	}
}

// TestObserveValidation: every entry point that names a session holds
// the name to the hub's rule (pcm.ValidSessionID), not to its length
// alone, and a refused name leaves no session behind.
func TestObserveValidation(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig())
	for _, name := range []string{
		"",
		strings.Repeat("x", 200),
		"vm 1",
		"vm/1",
		`vm"1`,
		"vm\x7f1",
		"vm\x011",
	} {
		if err := eng.Observe(name, 0, true); err == nil {
			t.Errorf("Observe(%q) accepted", name)
		}
		if _, err := eng.Pause(name); err == nil {
			t.Errorf("Pause(%q) accepted", name)
		}
		if _, err := eng.Force(name, 1); err == nil {
			t.Errorf("Force(%q, 1) accepted", name)
		}
		if _, err := eng.Force(name, ForceNone); err == nil {
			t.Errorf("Force(%q, ForceNone) accepted", name)
		}
		if _, err := eng.Resume(name); err == nil {
			t.Errorf("Resume(%q) accepted", name)
		}
	}
	if n := eng.Stats().Sessions; n != 0 {
		t.Errorf("refused names left %d sessions", n)
	}
	if err := eng.Observe("vm-1.a_b:c", 0, true); err != nil {
		t.Errorf("valid name refused: %v", err)
	}
}

// TestLevelNameDoesNotAllocate: rung names are built once, so naming a
// throttle rung (every /v1/responses entry does) costs no allocation.
func TestLevelNameDoesNotAllocate(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig())
	var name string
	allocs := testing.AllocsPerRun(100, func() { name = eng.LevelName(2) })
	if allocs != 0 {
		t.Errorf("LevelName(2) = %q: %.1f allocs, want 0", name, allocs)
	}
}

// driveScript exercises a representative mix of raises, clears, flaps,
// ticks and overrides against an engine.
func driveScript(t *testing.T, eng *Engine) {
	t.Helper()
	raise(t, eng, "vm-a", 0)
	raise(t, eng, "vm-b", 1)
	eng.Tick(15)
	clear(t, eng, "vm-b", 16)
	eng.Tick(31) // vm-a sustained → 2; vm-b hysteresis starts
	eng.Tick(40) // vm-b releases (26+... quiet)
	raise(t, eng, "vm-b", 45)
	clear(t, eng, "vm-a", 50)
	if _, err := eng.Force("vm-b", 2); err != nil {
		t.Fatal(err)
	}
	eng.Tick(70)
	if _, err := eng.Resume("vm-b"); err != nil {
		t.Fatal(err)
	}
	clear(t, eng, "vm-b", 80)
	eng.Tick(200)
	eng.Tick(400)
}

// TestDeterminism: the same event script produces bit-identical state and
// actuator call sequences.
func TestDeterminism(t *testing.T) {
	run := func() ([]SessionState, []call) {
		eng, act := newTestEngine(t, testConfig())
		driveScript(t, eng)
		return eng.States(), act.log()
	}
	st1, calls1 := run()
	st2, calls2 := run()
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("states diverged:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(calls1, calls2) {
		t.Errorf("actuator calls diverged:\n%+v\n%+v", calls1, calls2)
	}
}

// TestActionLogBounded drives one session past maxLog actions: the log
// keeps exactly the newest maxLog, the last action last.
func TestActionLogBounded(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig())
	var last float64
	for i := 0; i < 50; i++ {
		at := float64(1000 * i)
		raise(t, eng, "vm", at)
		clear(t, eng, "vm", at+1)
		last = at + 999
		eng.Tick(last) // one step down each cycle
	}
	st, _ := eng.State("vm")
	if n := st.Escalations + st.Deescalations; n <= maxLog {
		t.Fatalf("only %d transitions: the run does not pass the cap of %d", n, maxLog)
	}
	if len(st.Actions) != maxLog {
		t.Fatalf("action log holds %d, want exactly %d", len(st.Actions), maxLog)
	}
	for i := 1; i < len(st.Actions); i++ {
		if st.Actions[i].Time < st.Actions[i-1].Time {
			t.Fatalf("action %d at %v before action %d at %v", i, st.Actions[i].Time, i-1, st.Actions[i-1].Time)
		}
	}
	if a := st.Actions[maxLog-1]; a.Time != last || a.Reason != reasonBackoff {
		t.Errorf("newest action %+v is not the last tick's back-off at %v", a, last)
	}
}

// TestConcurrentAccess drives overlapping raise/clear streams, ticks and
// state reads from many goroutines (meaningful under -race).
func TestConcurrentAccess(t *testing.T) {
	eng, _ := newTestEngine(t, testConfig())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("vm-%d", g)
			for i := 0; i < 200; i++ {
				at := float64(i)
				if err := eng.Observe(name, at, i%2 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			eng.Tick(float64(i))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			eng.States()
			eng.Stats()
			if i%10 == 0 {
				if _, err := eng.Pause("vm-0"); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Resume("vm-0"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestBandwidthRung walks the full ladder with the membw-limit rung
// enabled: it sits between the last throttle step and partition, stacks
// the strongest throttle underneath, stays applied while partitioned,
// and is released in reverse order on hysteresis back-off.
func TestBandwidthRung(t *testing.T) {
	cfg := testConfig()
	cfg.EnableBandwidth = true
	cfg.BandwidthBudget = 2e9
	eng, act := newTestEngine(t, cfg)

	// Geometry: 3 throttles, then membw-limit, partition, migrate.
	if eng.MaxLevel() != 6 {
		t.Fatalf("MaxLevel = %d, want 6", eng.MaxLevel())
	}
	if got := eng.LevelName(4); got != "membw-limit" {
		t.Fatalf("LevelName(4) = %q", got)
	}
	if got := eng.LevelName(5); got != "partition" {
		t.Fatalf("LevelName(5) = %q", got)
	}

	// Sustained alarm climbs one rung per EscalateAfter.
	raise(t, eng, "v", 0)
	eng.Tick(30)
	eng.Tick(60)
	eng.Tick(90) // level 4: membw-limit
	if got := level(t, eng, "v"); got != 4 {
		t.Fatalf("level after 90s = %d, want 4 (membw-limit)", got)
	}
	// The rung stacked the top throttle and the budget.
	calls := act.log()
	last := calls[len(calls)-1]
	if last.kind != "membw" || last.duty != 2e9 {
		t.Fatalf("last call at membw rung = %+v, want membw budget 2e9", last)
	}
	if prev := calls[len(calls)-2]; prev.kind != "throttle" || prev.duty != 0.75 {
		t.Fatalf("membw rung did not stack top throttle: %+v", prev)
	}

	// Partition rung keeps the budget: no extra membw call, one partition.
	eng.Tick(120)
	if got := level(t, eng, "v"); got != 5 {
		t.Fatalf("level after 120s = %d, want 5 (partition)", got)
	}
	newCalls := act.log()[len(calls):]
	for _, c := range newCalls {
		if c.kind == "membw" {
			t.Fatalf("partition rung re-applied membw: %+v", newCalls)
		}
	}
	if last := newCalls[len(newCalls)-1]; last.kind != "partition" || !last.on {
		t.Fatalf("partition rung calls = %+v", newCalls)
	}

	// Hysteresis back-off releases in reverse order: partition off first
	// (budget still held), then the budget cleared, then weaker throttles.
	clear(t, eng, "v", 121)
	eng.Tick(131) // back to 4
	if got := level(t, eng, "v"); got != 4 {
		t.Fatalf("level after first backoff = %d, want 4", got)
	}
	calls = act.log()
	if last := calls[len(calls)-1]; last.kind != "partition" || last.on {
		t.Fatalf("backoff to membw rung should only drop partition, got %+v", last)
	}
	eng.Tick(141) // back to 3: budget cleared, throttle 0.75 kept
	if got := level(t, eng, "v"); got != 3 {
		t.Fatalf("level after second backoff = %d, want 3", got)
	}
	calls = act.log()
	if last := calls[len(calls)-1]; last.kind != "membw" || last.duty != 0 {
		t.Fatalf("backoff past membw rung should clear the budget, got %+v", last)
	}
	eng.Tick(151) // level 2: throttle weakens
	if got := level(t, eng, "v"); got != 2 {
		t.Fatalf("level = %d, want 2", got)
	}
	calls = act.log()
	if last := calls[len(calls)-1]; last.kind != "throttle" || last.duty != 0.5 {
		t.Fatalf("expected throttle 0.5, got %+v", last)
	}

	st := eng.Stats()
	if st.BandwidthLimits != 2 { // one apply, one clear
		t.Fatalf("BandwidthLimits = %d, want 2", st.BandwidthLimits)
	}
}

// TestBandwidthRungDisabled pins that without EnableBandwidth the ladder
// is byte-for-byte the old geometry and never calls LimitBandwidth.
func TestBandwidthRungDisabled(t *testing.T) {
	eng, act := newTestEngine(t, testConfig())
	if eng.MaxLevel() != 5 {
		t.Fatalf("MaxLevel = %d, want 5", eng.MaxLevel())
	}
	raise(t, eng, "v", 0)
	for tt := 30.0; tt <= 150; tt += 30 {
		eng.Tick(tt)
	}
	for _, c := range act.log() {
		if c.kind == "membw" {
			t.Fatalf("LimitBandwidth called with rung disabled: %+v", c)
		}
	}
	if eng.Stats().BandwidthLimits != 0 {
		t.Fatal("BandwidthLimits counter moved with rung disabled")
	}
}

// TestBandwidthRungFlapReentry pins the flap-cooldown interaction: a
// session that backed off from the membw rung re-enters one rung above
// where it left when the alarm flaps back within Cooldown.
func TestBandwidthRungFlapReentry(t *testing.T) {
	cfg := testConfig()
	cfg.EnableBandwidth = true
	cfg.BandwidthBudget = 1e9
	eng, _ := newTestEngine(t, cfg)
	raise(t, eng, "v", 0)
	eng.Tick(30)
	eng.Tick(60)
	eng.Tick(90) // membw rung (4)
	clear(t, eng, "v", 91)
	// Walk all the way down: 4 releases at 101, 111, 121, 131.
	for tt := 101.0; tt <= 131; tt += 10 {
		eng.Tick(tt)
	}
	if got := level(t, eng, "v"); got != 0 {
		t.Fatalf("did not fully release: level %d", got)
	}
	// Flap back within Cooldown: re-enter at memLevel+1 = 2.
	raise(t, eng, "v", 140)
	if got := level(t, eng, "v"); got != 2 {
		t.Fatalf("flap re-entry level = %d, want 2", got)
	}
}
