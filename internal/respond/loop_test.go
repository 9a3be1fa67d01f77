package respond_test

import (
	"math"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/core"
	"memdos/internal/experiments"
	"memdos/internal/pcm"
	"memdos/internal/respond"
	"memdos/internal/stream"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// busLockStream is the victim's PCM stream on closedLoopRun's testbed
// (KM beside a bus-locking attacker and three utility VMs, seed 7) with
// the attack on over [start, end), sampled until dur.
func busLockStream(t *testing.T, start, end, dur float64) []pcm.Sample {
	t.Helper()
	cfg := vmm.DefaultConfig()
	cfg.Seed = 7
	srv, err := vmm.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	km, err := workload.ByAbbrev("KM")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := srv.AddApp("victim", km.Service())
	if err != nil {
		t.Fatal(err)
	}
	atk, err := attack.NewBusLock(attack.Window{Start: start, End: end}, experiments.BusLockDuty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddAttacker("attacker", atk); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"util0", "util1", "util2"} {
		if _, err := srv.AddApp(name, workload.Utility()); err != nil {
			t.Fatal(err)
		}
	}
	var out []pcm.Sample
	srv.RunUntil(dur, func(step vmm.StepResult) { out = append(out, step.Samples[victim.ID()]) })
	return out
}

// TestServingPathMatchesLoopMitigation holds the serving path to the
// reproduction's closed loop on one sample stream: the loop's contract
// (SDS Push, Observe on each edge, Tick every sample, as closedLoopRun
// drives it) and a hub with the engine attached as an observer and no
// Tick at all must take the same actions — kind, level, duty and reason —
// each within one decision step ΔW·T_PCM of the other. The stream climbs
// to the top throttle rung and backs off to idle.
func TestServingPathMatchesLoopMitigation(t *testing.T) {
	params := core.DefaultParams()
	prof, err := experiments.ProfileApp("KM", experiments.ProfileDuration, params)
	if err != nil {
		t.Fatal(err)
	}
	samples := busLockStream(t, 30, 100, 200)
	cfg := experiments.DefaultClosedLoopSpec("KM", experiments.BusLock, 7).Respond
	newEngine := func() *respond.Engine {
		eng, err := respond.New(cfg, respond.NewLogActuator())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	loop := newEngine()
	det, err := core.NewSDS(prof, params)
	if err != nil {
		t.Fatal(err)
	}
	var alarm core.IncidentFold
	for _, s := range samples {
		for _, d := range det.Push(s) {
			if _, edge := alarm.Observe(d); !edge {
				continue
			}
			if err := loop.Observe("victim", d.Time, d.Alarm); err != nil {
				t.Fatal(err)
			}
		}
		loop.Tick(s.Time)
	}

	served := newEngine()
	hub := stream.NewHub(stream.Config{Shards: 1, Policy: stream.Block})
	defer hub.Close()
	if err := hub.RegisterProfile("sds:KM", func() (core.Detector, error) { return core.NewSDS(prof, params) }); err != nil {
		t.Fatal(err)
	}
	if err := hub.Open("victim", "sds:KM"); err != nil {
		t.Fatal(err)
	}
	defer hub.AddObserver(served)()
	for off := 0; off < len(samples); off += 100 {
		if _, err := hub.Ingest("victim", samples[off:min(off+100, len(samples))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}

	want, _ := loop.State("victim")
	got, _ := served.State("victim")
	if len(got.Actions) != len(want.Actions) {
		t.Fatalf("hub acted %d times, loop %d:\nhub  %+v\nloop %+v", len(got.Actions), len(want.Actions), got.Actions, want.Actions)
	}
	step := float64(params.DW) * vmm.DefaultConfig().TPCM
	exact := 0
	for i, w := range want.Actions {
		g := w
		g.Time = got.Actions[i].Time
		if got.Actions[i] != g || math.Abs(g.Time-w.Time) > step+1e-9 {
			t.Errorf("action %d: hub %+v, loop %+v", i, got.Actions[i], w)
		}
		if g.Time == w.Time {
			exact++
		}
	}
	if want.PeakLevel < 3 || want.Level != 0 {
		t.Errorf("stream too tame: loop peaked at rung %d and ended at %d", want.PeakLevel, want.Level)
	}
	t.Logf("%d actions, %d at exactly the loop's time, the rest within %v s", len(want.Actions), exact, step)
}
