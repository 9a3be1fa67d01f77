package experiments

import (
	"fmt"

	"memdos/internal/attack"
	"memdos/internal/core"
	"memdos/internal/mem"
	"memdos/internal/par"
	"memdos/internal/respond"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// The closed-loop mitigation experiment: the defender-daemon counterpart
// of Fig. 14. Where Fig. 14 quantifies what always-on *detection* costs a
// clean victim, ClosedLoop quantifies what detection-driven *response*
// recovers for an attacked one. It co-locates a finite victim with a
// persistent attacker, pushes the victim's PCM samples through an SDS
// detector, and lets a respond.Engine fed its alarm transitions drive the
// hypervisor's graduated mitigation (throttle the suspect, partition,
// migrate). The headline metric is the victim's normalized execution
// time — completion time divided by the attack-free completion time —
// with and without mitigation.

// ClosedLoopSpec configures one closed-loop study.
type ClosedLoopSpec struct {
	App  string
	Mode AttackMode
	Seed uint64
	// AttackStart is when the attacker first co-locates (seconds).
	AttackStart float64
	// RelocationDelay is how long a migration buys before the attacker
	// re-co-locates (seconds).
	RelocationDelay float64
	// UtilityVMs co-locates this many benign utility VMs.
	UtilityVMs int
	// Respond parameterizes the mitigation ladder.
	Respond respond.Config
	// Mem, when set, runs every arm on a server with the DRAM
	// memory-controller model on this topology. Required for MemBW
	// attacks and for the ladder's membw-limit rung to actuate.
	Mem *mem.NUMAConfig
	// AttackerSocket homes the attacker on this socket (victim and
	// utility VMs stay on socket 0). On a multi-socket topology a
	// non-zero value makes the attack a remote, cross-socket stream.
	AttackerSocket int
}

// DefaultClosedLoopSpec returns a study of the given app and attack with
// the default mitigation ladder. The partition rung is only enabled for
// LLC cleansing — partitioning cannot contain a bus-locking attacker.
func DefaultClosedLoopSpec(app string, mode AttackMode, seed uint64) ClosedLoopSpec {
	rc := respond.DefaultConfig()
	rc.EnablePartition = mode == Cleansing
	if mode == MemBW {
		// Execution throttling only dents a streaming hog; the MemGuard
		// budget rung is what contains it. Callers must still set Mem.
		rc.EnableBandwidth = true
		rc.BandwidthBudget = MemBWBudget
	}
	return ClosedLoopSpec{
		App:             app,
		Mode:            mode,
		Seed:            seed,
		AttackStart:     30,
		RelocationDelay: 120,
		UtilityVMs:      3,
		Respond:         rc,
	}
}

// ClosedLoopResult reports the recovered performance.
type ClosedLoopResult struct {
	App  string
	Mode AttackMode
	// CleanTime is the victim's attack-free completion time.
	CleanTime float64
	// AttackedTime / MitigatedTime are completion times under attack
	// with mitigation off / on. MitigatedTime includes the detector's
	// hypervisor CPU cost (Fig. 14's overhead model), so the recovery is
	// net of what the defense itself costs.
	AttackedTime, MitigatedTime float64
	// AttackedNormalized / MitigatedNormalized are the Fig. 14-style
	// normalized execution times (1.0 = attack-free).
	AttackedNormalized, MitigatedNormalized float64
	// Recovered is the fraction of the attack-induced slowdown the
	// closed loop gave back: (attacked - mitigated) / (attacked - 1).
	Recovered float64
	// Alarms counts alarm raise events during the mitigated run.
	Alarms int
	// PeakLevel is the highest mitigation rung reached.
	PeakLevel int
	// Engine counters from the mitigated run.
	Stats respond.Stats
}

// loopActuator maps the respond engine's session-addressed actions onto
// the simulated hypervisor: the suspect resolution is exact here (the
// co-located attack VM); on real hardware it would come from per-VM
// counter attribution.
type loopActuator struct {
	srv     *vmm.Server
	suspect vmm.VMID
	sched   *attack.Suppressor
	delay   float64
}

func (a *loopActuator) Throttle(_ string, duty float64) error {
	return a.srv.SetExecThrottle(a.suspect, duty)
}

// LimitBandwidth applies the MemGuard-style DRAM budget to the suspect.
// On a server without the memory-controller model this reports an error,
// which the engine records and climbs past.
func (a *loopActuator) LimitBandwidth(_ string, bytesPerSec float64) error {
	return a.srv.SetMemBandwidthLimit(a.suspect, bytesPerSec)
}

func (a *loopActuator) Partition(_ string, on bool) error {
	return a.srv.SetCachePartition(a.suspect, on)
}

// Migrate moves the victim to a fresh host: the attacker loses
// co-residence and needs the relocation delay to find it again. The
// detector keeps running — the profile remains valid on the new host.
// This single-host study has no real destination; internal/cluster's
// actuator performs the physical move and reports the landing host.
func (a *loopActuator) Migrate(_ string) (respond.MigrateResult, error) {
	a.sched.Suppress(a.srv.Now() + a.delay)
	return respond.MigrateResult{Dest: "fresh-host"}, nil
}

// ClosedLoop runs the three-arm study (clean, attacked, attacked with
// mitigation) and reports the recovered performance. All three arms use
// the same seed; with a fixed spec the result is bit-reproducible — the
// detector and the engine are driven only by simulated-time events.
func ClosedLoop(spec ClosedLoopSpec) (*ClosedLoopResult, error) {
	if spec.AttackStart < 0 || spec.RelocationDelay <= 0 {
		return nil, fmt.Errorf("experiments: invalid closed-loop times (start %v, delay %v)", spec.AttackStart, spec.RelocationDelay)
	}
	if spec.Mode == NoAttack {
		return nil, fmt.Errorf("experiments: closed loop needs an attack mode")
	}
	// Checked before the arms fan out, so a refused spec runs no arm.
	if err := checkMem(spec.Mode, spec.Mem); err != nil {
		return nil, err
	}
	ws, err := workload.ByAbbrev(spec.App)
	if err != nil {
		return nil, err
	}
	// Each run is capped at 20x the app's nominal runtime.
	maxDur := 20 * ws.WorkSeconds

	res := &ClosedLoopResult{App: spec.App, Mode: spec.Mode}
	// The three arms share nothing but the spec — each builds its own
	// server, detector and engine — so they run as parallel cells. Only the
	// mitigated arm writes the engine-side fields of res.
	arms := []struct {
		attacked, mitigate bool
		out                *ClosedLoopResult
		dst                *float64
	}{
		{false, false, nil, &res.CleanTime},
		{true, false, nil, &res.AttackedTime},
		{true, true, res, &res.MitigatedTime},
	}
	err = par.DefaultRunner().Do(len(arms), func(i int) error {
		t, err := closedLoopRun(spec, maxDur, arms[i].attacked, arms[i].mitigate, arms[i].out)
		if err != nil {
			return err
		}
		*arms[i].dst = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AttackedNormalized = res.AttackedTime / res.CleanTime
	res.MitigatedNormalized = res.MitigatedTime / res.CleanTime
	if res.AttackedNormalized > 1 {
		res.Recovered = (res.AttackedNormalized - res.MitigatedNormalized) / (res.AttackedNormalized - 1)
	}
	return res, nil
}

// closedLoopRun executes one arm and returns the victim's completion
// time. With mitigate set it wires server → detector → engine → server
// and fills out's engine-side fields (out must be non-nil then).
func closedLoopRun(spec ClosedLoopSpec, maxDur float64, attacked, mitigate bool, out *ClosedLoopResult) (float64, error) {
	// The loop stops at maxDur, so the attack window never closes.
	rs := RunSpec{
		App: spec.App, Duration: maxDur, Seed: spec.Seed, UtilityVMs: spec.UtilityVMs,
		AttackStart: spec.AttackStart, Mem: spec.Mem, AttackerSocket: spec.AttackerSocket,
	}
	if attacked {
		rs.Mode = spec.Mode
	}
	tb, err := buildServer(rs)
	if err != nil {
		return 0, err
	}
	srv, victim := tb.srv, tb.victim

	const sessionID = "victim"
	var det *core.SDS
	var eng *respond.Engine
	if mitigate {
		params := core.DefaultParams()
		prof, err := profileFor(spec.App, params)
		if err != nil {
			return 0, err
		}
		if det, err = core.NewSDS(prof, params); err != nil {
			return 0, err
		}
		// Charge the detector's hypervisor CPU cost, as Fig. 14 does.
		if err := srv.SetHypervisorLoad(charge(det)); err != nil {
			return 0, err
		}
		act := &loopActuator{srv: srv, suspect: tb.attacker.ID(), sched: tb.sched, delay: spec.RelocationDelay}
		if eng, err = respond.New(spec.Respond, act); err != nil {
			return 0, err
		}
	}

	var alarm core.IncidentFold
	for !victim.Completed() && srv.Now() < maxDur {
		step := srv.Step()
		if !mitigate {
			continue
		}
		for _, d := range det.Push(step.Samples[victim.ID()]) {
			if _, edge := alarm.Observe(d); !edge {
				continue
			}
			if err := eng.Observe(sessionID, d.Time, d.Alarm); err != nil {
				return 0, err
			}
		}
		eng.Tick(step.Time)
	}
	if !victim.Completed() {
		return 0, fmt.Errorf("experiments: victim did not complete %s within %.0fs (attacked=%v mitigate=%v)",
			spec.App, maxDur, attacked, mitigate)
	}
	if mitigate {
		out.Alarms = alarm.Raised()
		out.Stats = eng.Stats()
		if st, ok := eng.State(sessionID); ok {
			out.PeakLevel = st.PeakLevel
		}
	}
	return victim.DoneAt(), nil
}
