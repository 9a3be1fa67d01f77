package respond

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"memdos/internal/core"
	"memdos/internal/pcm"
	"memdos/internal/stream"
)

// flipDet alarms whenever MissNum exceeds 50 — a trivially controllable
// detector for wiring tests.
type flipDet struct{}

func (flipDet) Name() string { return "flip" }

func (flipDet) Push(s pcm.Sample) []core.Decision {
	return []core.Decision{{Time: s.Time, Alarm: s.MissNum > 50}}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// TestAttachClosesTheLoop is the stream→respond integration test: a
// raised alarm on the hub throttles the session's suspect VM through the
// actuator, and the clear (plus hysteresis ticks) un-throttles it.
func TestAttachClosesTheLoop(t *testing.T) {
	hub := stream.NewHub(stream.Config{Shards: 1, QueueCap: 1024, ShardBuffer: 8, Policy: stream.Block})
	defer hub.Close()
	if err := hub.RegisterProfile("flip", func() (core.Detector, error) { return flipDet{}, nil }); err != nil {
		t.Fatal(err)
	}
	if err := hub.Open("vm-a", "flip"); err != nil {
		t.Fatal(err)
	}

	cfg := Config{ThrottleDuties: []float64{0.5}, EscalateAfter: 30, ClearAfter: 10}
	act := &fakeAct{}
	eng, err := New(cfg, act)
	if err != nil {
		t.Fatal(err)
	}
	stop := Attach(hub, eng, 16)
	defer stop()

	// Raise: an anomalous sample flips the detector, the shard hands the
	// transition to the engine, the engine throttles.
	if _, err := hub.Ingest("vm-a", []pcm.Sample{{Time: 1, AccessNum: 100, MissNum: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		calls := act.log()
		return len(calls) == 1 && calls[0].kind == "throttle" && calls[0].sess == "vm-a" && calls[0].duty == 0.5
	}, "raised alarm did not throttle the suspect VM")

	// Clear: a clean sample flips the detector back; the engine holds the
	// throttle through the hysteresis window, then releases on tick.
	if _, err := hub.Ingest("vm-a", []pcm.Sample{{Time: 2, AccessNum: 100, MissNum: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, ok := eng.State("vm-a")
		return ok && !st.AlarmActive
	}, "clear event never reached the engine")
	if got := level(t, eng, "vm-a"); got != 1 {
		t.Fatalf("throttle dropped before hysteresis: level %d", got)
	}

	eng.Tick(12) // ClearAfter elapsed since the clear at t=2
	calls := act.log()
	if len(calls) != 2 || calls[1].kind != "throttle" || calls[1].duty != 0 {
		t.Fatalf("clear did not un-throttle: calls %+v", calls)
	}
	if got := level(t, eng, "vm-a"); got != 0 {
		t.Fatalf("level after release = %d, want 0", got)
	}

	// After stop, further hub alarms no longer reach the engine.
	stop()
	if _, err := hub.Ingest("vm-a", []pcm.Sample{{Time: 3, AccessNum: 100, MissNum: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if n := len(act.log()); n != 2 {
		t.Errorf("detached engine still actuated: %d calls", n)
	}
}

// stallAct is fakeAct whose first call announces itself on entered and
// then waits until release closes.
type stallAct struct {
	fakeAct
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (a *stallAct) Throttle(sess string, duty float64) error {
	a.once.Do(func() {
		close(a.entered)
		<-a.release
	})
	return a.fakeAct.Throttle(sess, duty)
}

// TestAttachLosesNoEdge: raise, clear and raise arrive while the engine
// is stuck in its first actuator call, attached with a one-event
// buffer. Afterwards the engine must agree with the hub that the alarm
// is up, and must have acted exactly as an engine fed the three edges
// directly.
func TestAttachLosesNoEdge(t *testing.T) {
	hub := stream.NewHub(stream.Config{Shards: 1, QueueCap: 1024, ShardBuffer: 8, Policy: stream.Block})
	defer hub.Close()
	if err := hub.RegisterProfile("flip", func() (core.Detector, error) { return flipDet{}, nil }); err != nil {
		t.Fatal(err)
	}
	if err := hub.Open("vm-a", "flip"); err != nil {
		t.Fatal(err)
	}
	act := &stallAct{entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(act.release) })
	defer release() // before hub.Close, which waits for the shard
	eng, err := New(DefaultConfig(), act)
	if err != nil {
		t.Fatal(err)
	}
	stop := Attach(hub, eng, 1)
	defer stop()

	ingest := func(at, miss float64) {
		t.Helper()
		if _, err := hub.Ingest("vm-a", []pcm.Sample{{Time: at, AccessNum: 100, MissNum: miss}}); err != nil {
			t.Fatal(err)
		}
	}
	ingest(1, 100) // raise
	select {
	case <-act.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the raise never reached the actuator")
	}
	ingest(2, 10)  // clear
	ingest(3, 100) // raise
	// Give the hub the chance to fold both edges while the actuator is
	// stuck. It has none when the engine runs on the shard: the shard is
	// the goroutine that is stuck, so this waits out its deadline.
	for deadline := time.Now().Add(100 * time.Millisecond); hub.Stats().Decisions < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	stop()

	in, _ := hub.Session("vm-a")
	st, ok := eng.State("vm-a")
	if !in.AlarmActive || !ok || st.AlarmActive != in.AlarmActive {
		t.Fatalf("hub alarm %v, engine alarm %v (record %v)", in.AlarmActive, st.AlarmActive, ok)
	}
	direct, _ := newTestEngine(t, DefaultConfig())
	raise(t, direct, "vm-a", 1)
	clear(t, direct, "vm-a", 2)
	raise(t, direct, "vm-a", 3)
	want, _ := direct.State("vm-a")
	if !reflect.DeepEqual(st.Actions, want.Actions) {
		t.Errorf("attached engine acted %+v, direct engine %+v", st.Actions, want.Actions)
	}
}

// flipHub opens ids with the flip detector on a Block hub of the given
// shard count and attaches eng to it.
func flipHub(t *testing.T, shards int, eng *Engine, ids ...string) *stream.Hub {
	t.Helper()
	hub := stream.NewHub(stream.Config{Shards: shards, QueueCap: 1024, ShardBuffer: 8, Policy: stream.Block})
	t.Cleanup(func() { hub.Close() })
	if err := hub.RegisterProfile("flip", func() (core.Detector, error) { return flipDet{}, nil }); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := hub.Open(id, "flip"); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(Attach(hub, eng, 0))
	return hub
}

// feed ingests one sample at t, alarming when miss exceeds 50.
func feed(t *testing.T, hub *stream.Hub, id string, at, miss float64) {
	t.Helper()
	if _, err := hub.Ingest(id, []pcm.Sample{{Time: at, AccessNum: 100, MissNum: miss}}); err != nil {
		t.Fatal(err)
	}
}

func drain(t *testing.T, hub *stream.Hub) {
	t.Helper()
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionClockIsolatedOnHub: a session streaming far-future times
// beside vm-a, on its shard or another, leaves vm-a's actions exactly as
// they are alone, where vm-a escalates and backs off to idle on its own
// decision times.
func TestSessionClockIsolatedOnHub(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			run := func(intruder bool) []Action {
				eng, _ := newTestEngine(t, DefaultConfig())
				hub := flipHub(t, shards, eng, "vm-a", "vm-b")
				for at := 1.0; at <= 100; at++ {
					miss := 10.0
					if at < 50 {
						miss = 100
					}
					feed(t, hub, "vm-a", at, miss)
					if intruder {
						feed(t, hub, "vm-b", 1e12+at, 100)
					}
				}
				drain(t, hub)
				st, _ := eng.State("vm-a")
				return st.Actions
			}
			alone, beside := run(false), run(true)
			if !reflect.DeepEqual(beside, alone) {
				t.Errorf("vm-a beside a far-future session acted %+v, alone %+v", beside, alone)
			}
			if n := len(alone); n < 3 || alone[n-1].Kind != ActionRelease {
				t.Errorf("vm-a alone did not escalate and back off to idle: %+v", alone)
			}
		})
	}
}

// TestSessionClockBacksOffWithoutTick: after a raise and a clear, the
// session's own quiet decisions walk it back to idle through the hub
// alone, once ClearAfter has passed on its sample time.
func TestSessionClockBacksOffWithoutTick(t *testing.T) {
	eng, act := newTestEngine(t, Config{ThrottleDuties: []float64{0.5}, EscalateAfter: 30, ClearAfter: 10})
	hub := flipHub(t, 1, eng, "vm-a")
	feed(t, hub, "vm-a", 1, 100) // raise
	feed(t, hub, "vm-a", 2, 10)  // clear
	feed(t, hub, "vm-a", 11.5, 10)
	drain(t, hub)
	if got := level(t, eng, "vm-a"); got != 1 {
		t.Fatalf("released inside ClearAfter: level %d", got)
	}
	feed(t, hub, "vm-a", 12, 10)
	drain(t, hub)
	want := []call{{kind: "throttle", sess: "vm-a", duty: 0.5}, {kind: "throttle", sess: "vm-a", duty: 0}}
	if got := act.log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("actuator calls %+v, want %+v", got, want)
	}
}
