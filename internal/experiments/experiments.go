// Package experiments reproduces the paper's evaluation: the measurement
// study (Figs. 1-8), the Scenario 1 and Scenario 2 detector comparisons
// (Figs. 11-16), the performance-overhead experiment (Fig. 14), the
// sensitivity sweeps (Figs. 17-24), and the ablation studies called out in
// DESIGN.md. Each public function (or, for Figs. 17-24, each row of
// Sweeps) regenerates the data behind one table or figure, and cmd/memdos
// renders them. Every accuracy experiment is a grid of independent
// (run, seed) pairs scored through one fan-out, scoreGrid.
package experiments

import (
	"fmt"
	"math"
	"sync"

	"memdos/internal/attack"
	"memdos/internal/core"
	"memdos/internal/mem"
	"memdos/internal/metrics"
	"memdos/internal/par"
	"memdos/internal/sim"
	"memdos/internal/trace"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// Scenario 1 timing (Section VI-A3): 600 s runs, attack during the second
// half.
const (
	Scenario1Duration    = 600.0
	Scenario1AttackStart = 300.0
	// ProfileDuration is how long the provider profiles a fresh VM before
	// admitting co-location (Section IV-B.1's safe-start assumption).
	ProfileDuration = 300.0
	// EvalGrace is the post-transition grace the per-instant scorer
	// allows for detector reaction time in Scenario 1 (Section VI-B
	// reports recall/specificity that do not penalize inherent delay).
	EvalGrace = 30.0
	// Scenario2Grace is the tighter grace for the adaptive scenario,
	// whose attack states last only 10-50 s.
	Scenario2Grace = 5.0
)

// Attack intensities used throughout (matching the measurement study's
// observed impact: AccessNum collapse to ~30%, severalfold MissNum rise).
const (
	BusLockDuty       = 0.7
	CleansingPressure = 0.6
	CleansingRate     = 2e6
	// MemBW attack intensities: a sequential streaming hog pushing
	// ~32 GB/s of mostly-read traffic at full duty — enough to saturate
	// a socket's DRAM channels while barely moving the LLC counters.
	MemBWBytesPerSec = 3.2e10
	MemBWReadFrac    = 0.8
	MemBWDuty        = 1.0
	// MemBWBudget is the MemGuard-style per-VM budget the closed loop's
	// membw-limit rung applies — a small fraction of a socket's capacity,
	// enough for a benign VM but crippling for the hog.
	MemBWBudget = 2e9
)

// AttackMode selects the attack (or none) for a run.
type AttackMode int

// Attack modes.
const (
	NoAttack AttackMode = iota
	BusLock
	Cleansing
	// MemBW is the DRAM bandwidth hog (Bechtel & Yun, arXiv:2005.10864):
	// it saturates the memory channels rather than the bus or LLC, so
	// runs using it need a memory-controller model (RunSpec.Mem).
	MemBW
)

// String names the mode.
func (m AttackMode) String() string {
	switch m {
	case NoAttack:
		return "none"
	case BusLock:
		return "bus locking"
	case Cleansing:
		return "LLC cleansing"
	case MemBW:
		return "DRAM bandwidth"
	default:
		return fmt.Sprintf("AttackMode(%d)", int(m))
	}
}

// Env hands detector factories everything they may need.
type Env struct {
	Server  *vmm.Server
	Victim  *vmm.VM
	Params  core.Params
	Profile core.Profile
}

// Throttle returns the hypervisor hook bound to the protected VM, for the
// KStest baseline.
func (e *Env) Throttle() core.Throttle {
	return func(dur float64) { e.Server.ThrottleOthers(e.Victim.ID(), dur) }
}

// DetectorFactory builds a detector for a concrete run environment.
type DetectorFactory func(*Env) (core.Detector, error)

// RunSpec describes one experiment run.
type RunSpec struct {
	App      string
	Mode     AttackMode
	Adaptive bool // Scenario 2 on/off schedule instead of half-run window
	Duration float64
	Seed     uint64
	// UtilityVMs co-locates this many benign utility VMs (the paper uses
	// 7).
	UtilityVMs int
	// Service keeps the victim running for the whole run (detection
	// scenarios); false lets it complete (overhead runs).
	Service bool
	// AttackStart is when the non-adaptive attack window opens; it
	// stays open to Duration. Zero attacks from the first sample.
	// DefaultRunSpec sets Scenario1AttackStart; shorter studies place
	// the transition mid-run so both regimes are observed.
	AttackStart float64
	// Mem, when set, runs the testbed on a server with the DRAM
	// memory-controller model on this topology. Required for MemBW.
	Mem *mem.NUMAConfig
	// AttackerSocket homes the attacker on this socket (the victim and
	// utility VMs stay on socket 0). Non-zero on a multi-socket
	// topology makes the attack a remote, cross-socket stream.
	AttackerSocket int
}

// DefaultRunSpec returns a Scenario 1 run of the given app and mode.
func DefaultRunSpec(app string, mode AttackMode, seed uint64) RunSpec {
	return RunSpec{
		App:         app,
		Mode:        mode,
		Duration:    Scenario1Duration,
		AttackStart: Scenario1AttackStart,
		Seed:        seed,
		UtilityVMs:  7,
		Service:     true,
	}
}

// RunResult is the outcome of one run.
type RunResult struct {
	// Decisions is the detector's decision time-line (nil with no
	// detector).
	Decisions []core.Decision
	// Truth is the ground-truth attack interval set.
	Truth []metrics.Interval
	// Access and Miss are the victim's PCM series.
	Access, Miss *trace.Series
	// VictimDoneAt is when a finite victim completed (0 if still running).
	VictimDoneAt float64
}

// testbed is the server of Section VI-A1 as buildServer assembles it.
type testbed struct {
	srv    *vmm.Server
	victim *vmm.VM
	// attacker is the attack VM and sched its schedule (both nil with
	// NoAttack). sched passes the spec's schedule through until a
	// migrated-away victim's actuator suppresses it.
	attacker *vmm.VM
	sched    *attack.Suppressor
	// truth is the ground-truth attack interval set.
	truth []metrics.Interval
}

// checkMem refuses an attack mode the server cannot run without the
// memory-controller model m.
func checkMem(mode AttackMode, m *mem.NUMAConfig) error {
	if mode == MemBW && m == nil {
		return fmt.Errorf("experiments: the %v attack needs a memory-controller model (Mem)", MemBW)
	}
	return nil
}

// buildServer assembles the testbed of Section VI-A1: one victim VM, one
// attack VM, and UtilityVMs benign VMs.
func buildServer(spec RunSpec) (*testbed, error) {
	if err := checkMem(spec.Mode, spec.Mem); err != nil {
		return nil, err
	}
	cfg := vmm.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Mem = spec.Mem
	srv, err := vmm.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	appSpec, err := workload.ByAbbrev(spec.App)
	if err != nil {
		return nil, err
	}
	if spec.Service {
		appSpec = appSpec.Service()
	}
	tb := &testbed{srv: srv}
	if tb.victim, err = srv.AddApp("victim", appSpec); err != nil {
		return nil, err
	}
	if spec.Mem != nil {
		if err := srv.SetVMSocket(tb.victim.ID(), 0); err != nil {
			return nil, err
		}
	}

	if spec.Mode != NoAttack {
		var sched attack.Schedule
		if spec.Adaptive {
			ad, err := attack.NewAdaptive(sim.NewRNG(spec.Seed^0xadada), 10, 50)
			if err != nil {
				return nil, err
			}
			for _, w := range ad.ActiveWindows(spec.Duration) {
				tb.truth = append(tb.truth, metrics.Interval{Start: w.Start, End: w.End})
			}
			sched = ad
		} else {
			sched = attack.Window{Start: spec.AttackStart, End: spec.Duration}
			tb.truth = []metrics.Interval{{Start: spec.AttackStart, End: spec.Duration}}
		}
		if tb.sched, err = attack.NewSuppressor(sched); err != nil {
			return nil, err
		}
		atk, err := newAttacker(spec.Mode, tb.sched)
		if err != nil {
			return nil, err
		}
		if tb.attacker, err = srv.AddAttacker("attacker", atk); err != nil {
			return nil, err
		}
		if spec.Mem != nil {
			if err := srv.SetVMSocket(tb.attacker.ID(), spec.AttackerSocket); err != nil {
				return nil, err
			}
			if spec.AttackerSocket != 0 {
				// A cross-socket hog streams entirely into the victim's
				// memory, so all its traffic is remote.
				if err := srv.SetMemRemoteFraction(tb.attacker.ID(), 1); err != nil {
					return nil, err
				}
			}
		}
	}
	for i := 0; i < spec.UtilityVMs; i++ {
		util, err := srv.AddApp(fmt.Sprintf("util%d", i), workload.Utility())
		if err != nil {
			return nil, err
		}
		if spec.Mem != nil {
			if err := srv.SetVMSocket(util.ID(), 0); err != nil {
				return nil, err
			}
		}
	}
	return tb, nil
}

// traceUntil runs the testbed until t and returns the victim's trace.
func (tb *testbed) traceUntil(t float64) *victimTrace {
	rec := newVictimTrace(tb)
	tb.srv.RunUntil(t, rec.record)
	return rec
}

// victimTrace records one VM's AccessNum and MissNum samples as the
// series victim.access and victim.miss on the counters' own grid (Start =
// Interval = T_PCM). A PCM counter keeps no history, so each study that
// reads the victim's trace records it from the samples of every step.
type victimTrace struct {
	id           vmm.VMID
	access, miss *trace.Series
}

// newVictimTrace returns an empty trace of the testbed's victim.
func newVictimTrace(tb *testbed) *victimTrace {
	tpcm := tb.srv.TPCM()
	return &victimTrace{
		id:     tb.victim.ID(),
		access: trace.NewSeries("victim.access", tpcm, tpcm),
		miss:   trace.NewSeries("victim.miss", tpcm, tpcm),
	}
}

// record appends the traced VM's sample of one step.
func (t *victimTrace) record(step vmm.StepResult) {
	s := step.Samples[t.id]
	t.access.Append(s.AccessNum)
	t.miss.Append(s.MissNum)
}

// newAttacker builds the attacker for a mode with the standard
// intensities.
func newAttacker(mode AttackMode, sched attack.Schedule) (*attack.Attacker, error) {
	switch mode {
	case BusLock:
		return attack.NewBusLock(sched, BusLockDuty)
	case Cleansing:
		return attack.NewLLCCleansing(sched, CleansingPressure, CleansingRate)
	case MemBW:
		return attack.NewMemBandwidth(sched, MemBWBytesPerSec, MemBWReadFrac, MemBWDuty)
	default:
		return nil, fmt.Errorf("experiments: no attacker for mode %v", mode)
	}
}

// Run executes the spec, streaming the victim's samples through the
// detector the factory builds and charging the hypervisor its Fig. 14
// cost. A nil factory runs the testbed with no detector.
func Run(spec RunSpec, params core.Params, factory DetectorFactory) (*RunResult, error) {
	tb, err := buildServer(spec)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Truth: tb.truth}
	rec := newVictimTrace(tb)
	onStep := rec.record
	if factory != nil {
		prof, err := profileFor(spec.App, params)
		if err != nil {
			return nil, err
		}
		det, err := factory(&Env{Server: tb.srv, Victim: tb.victim, Params: params, Profile: prof})
		if err != nil {
			return nil, fmt.Errorf("experiments: building detector: %w", err)
		}
		if err := tb.srv.SetHypervisorLoad(charge(det)); err != nil {
			return nil, err
		}
		onStep = func(step vmm.StepResult) {
			rec.record(step)
			res.Decisions = append(res.Decisions, det.Push(step.Samples[tb.victim.ID()])...)
		}
	}
	tb.srv.RunUntil(spec.Duration, onStep)
	res.Access, res.Miss = rec.access, rec.miss
	res.VictimDoneAt = tb.victim.DoneAt()
	return res, nil
}

// profileCache memoizes profiles per (app, W, dW, alpha), the only
// parameters BuildProfile smooths with; profiling runs are deterministic
// so one profile per key suffices. Entries carry a sync.Once so that when
// many parallel sweep cells need the same profile, exactly one of them
// runs the (expensive) profiling simulation and the rest wait on it
// instead of duplicating the work.
var profileCache sync.Map

type profileKey struct {
	app   string
	w, dw int
	alpha float64
}

type profileEntry struct {
	once sync.Once
	prof core.Profile
	err  error
}

// profileFor returns the attack-free profile of the app under the given
// parameters (Section IV-B.1's safe-start profiling).
func profileFor(app string, params core.Params) (core.Profile, error) {
	key := profileKey{app: app, w: params.W, dw: params.DW, alpha: params.Alpha}
	v, _ := profileCache.LoadOrStore(key, &profileEntry{})
	e := v.(*profileEntry)
	e.once.Do(func() {
		e.prof, e.err = ProfileApp(app, ProfileDuration, params)
		if e.err != nil {
			// Let a later caller retry a failed profiling run.
			profileCache.Delete(key)
		}
	})
	return e.prof, e.err
}

// ProfileApp runs the app alone on a clean server for dur seconds and
// builds its profile.
func ProfileApp(app string, dur float64, params core.Params) (core.Profile, error) {
	tb, err := buildServer(RunSpec{App: app, Seed: vmm.DefaultConfig().Seed, Service: true})
	if err != nil {
		return core.Profile{}, err
	}
	rec := tb.traceUntil(dur)
	return core.BuildProfile(rec.access.Values, rec.miss.Values, params)
}

// Standard detector factories.

// SDSFactory builds the combined SDS detector.
func SDSFactory(env *Env) (core.Detector, error) {
	return core.NewSDS(env.Profile, env.Params)
}

// SDSBFactory builds SDS/B alone.
func SDSBFactory(env *Env) (core.Detector, error) {
	return core.NewSDSB(env.Profile, env.Params)
}

// SDSPFactory builds SDS/P alone (periodic applications only).
func SDSPFactory(env *Env) (core.Detector, error) {
	return core.NewSDSP(env.Profile, env.Params)
}

// KSFactory builds the KStest baseline with the Section VI evaluation
// cadence, wired to the hypervisor's execution throttling.
func KSFactory(env *Env) (core.Detector, error) {
	return core.NewKSTestDetector(core.EvaluationKSParams(), env.Throttle())
}

// Accuracy scores one detector's decision time-line.
type Accuracy struct {
	Recall      float64
	Specificity float64
	// MeanDelay is the mean detection delay over the run's attacks (NaN
	// if never detected or no attacks).
	MeanDelay float64
}

// Score evaluates the run's decisions against its ground truth with the
// given grace.
func Score(res *RunResult, grace float64) Accuracy {
	conf := metrics.Evaluate(res.Decisions, res.Truth, grace)
	return Accuracy{
		Recall:      conf.Recall(),
		Specificity: conf.Specificity(),
		MeanDelay:   metrics.MeanDelay(metrics.DetectionDelay(res.Decisions, res.Truth)),
	}
}

// gridCell is one point of a scored grid: the run (its Seed is set per
// seed), the detector parameters and the detector factory.
type gridCell struct {
	spec    RunSpec
	params  core.Params
	factory DetectorFactory
}

// scoreGrid is every accuracy experiment's fan-out: it runs and scores
// each (cell, seed) pair once on the shared Runner and returns each
// cell's accuracies in seed order. The pairs are independent
// deterministic runs merged by index, so the result does not depend on
// the worker count. An adaptive run is scored with Scenario2Grace, any
// other with EvalGrace.
func scoreGrid(cells []gridCell, seeds []uint64) ([][]Accuracy, error) {
	if len(cells) == 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: a scored grid needs cells and seeds, got %d and %d", len(cells), len(seeds))
	}
	n := len(seeds)
	flat, err := par.MapCells(par.DefaultRunner(), len(cells)*n, func(i int) (Accuracy, error) {
		c := cells[i/n]
		spec := c.spec
		spec.Seed = seeds[i%n]
		res, err := Run(spec, c.params, c.factory)
		if err != nil {
			return Accuracy{}, err
		}
		if spec.Adaptive {
			return Score(res, Scenario2Grace), nil
		}
		return Score(res, EvalGrace), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Accuracy, len(cells))
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out, nil
}

// finite splits per-seed accuracies into their recall, specificity and
// delay values, in seed order, dropping each NaN (a seed with no attack,
// no clean time or no detection).
func finite(accs []Accuracy) (rec, spc, dly []float64) {
	for _, a := range accs {
		if !math.IsNaN(a.Recall) {
			rec = append(rec, a.Recall)
		}
		if !math.IsNaN(a.Specificity) {
			spc = append(spc, a.Specificity)
		}
		if !math.IsNaN(a.MeanDelay) {
			dly = append(dly, a.MeanDelay)
		}
	}
	return rec, spc, dly
}
