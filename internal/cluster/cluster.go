// Package cluster simulates a multi-host datacenter built from the
// single-server model of internal/vmm: many hosts stepping in lockstep,
// a placement scheduler deciding where VMs land, attacker VMs pursuing
// co-residence (the paper's Section III threat model at cloud scale),
// and real VM migration — a victim's runtime state is serialized out of
// one host's hypervisor and admitted into another's — as the terminal
// rung of the respond ladder: detect on host A, drain the victim to a
// clean host B.
//
// Hosts advance in sync quanta of syncEvery (50) ticks. Within a
// quantum every host steps independently (each worker of the bounded
// pool of internal/par steps one contiguous run of hosts, so two cores
// never write neighbouring hosts' heap state at once; all state touched
// is host-local, with alarm transitions buffered per host), then a
// serial control plane admits due migrations, merges the buffered
// detector events in (time, host, order) order into the respond engine,
// and drives the attacker placement dynamics. Because the merge order is
// fixed and the control plane is serial, a run is byte-identical at any
// worker count — the same determinism-by-construction contract the
// experiment harness pins down (see TestClusterDeterminismAcrossWorkers).
package cluster

import (
	"fmt"
	"math"
	"sort"

	"memdos/internal/attack"
	"memdos/internal/core"
	"memdos/internal/par"
	"memdos/internal/respond"
	"memdos/internal/sim"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// Config configures a Cluster.
type Config struct {
	// Hosts is the number of simulated physical machines (>= 2, so
	// migration always has somewhere to go).
	Hosts int
	// Host is the per-host hypervisor configuration template. Each
	// host's RNG seed is derived from Seed; the template's own Seed is
	// ignored.
	Host vmm.Config
	// Seed seeds the cluster RNG; host seeds and all placement
	// randomness derive from it.
	Seed uint64
	// Scheduler is the placement policy for victim/utility VMs and for
	// migration targets.
	Scheduler SchedulerPolicy
	// Placement is the attacker co-location strategy.
	Placement AttackerPolicy
	// Downtime is the victim migration transit time in seconds: the VM
	// makes no progress and produces no samples while in flight, and is
	// admitted at the first sync quantum after the downtime elapses.
	// 0 models live migration with negligible blackout.
	Downtime float64
	// RelocationDelay is how long a targeted attacker needs to re-achieve
	// co-residence after its victim migrates away (Section III-B's
	// probing cost), in seconds (> 0).
	RelocationDelay float64
	// ChurnInterval is how often a churn attacker relocates, in seconds
	// (> 0).
	ChurnInterval float64
	// HostCapacity is the resident-VM budget bin-packing fills to (> 0).
	HostCapacity int
	// Workers caps the host-sharding worker pool (0 = the process-wide
	// default, shared with the experiment harness).
	Workers int
	// Detector, when non-nil, builds one detection session per victim
	// (keyed by the victim's workload abbreviation) and wires alarms
	// through a respond engine whose migrate rung performs real
	// cluster migration. Nil disables the closed loop (clean and
	// attacked-only arms).
	Detector func(app string) (core.Detector, error)
	// Respond parameterizes the mitigation ladder (used only with
	// Detector set).
	Respond respond.Config
	// HypervisorLoad charges every host's hypervisor the given CPU
	// fraction for detector processing (the Fig. 14 cost model, paid
	// cluster-wide because every host samples its tenants).
	HypervisorLoad float64
}

// DefaultConfig returns a cluster of 8 paper-testbed hosts with
// contention-aware placement and targeted attackers.
func DefaultConfig() Config {
	return Config{
		Hosts:           8,
		Host:            vmm.DefaultConfig(),
		Seed:            1,
		Scheduler:       Spread,
		Placement:       AttackTargeted,
		RelocationDelay: 120,
		ChurnInterval:   60,
		HostCapacity:    16,
	}
}

// syncEvery is the sync-quantum length in ticks (0.5 s at the paper's
// T_PCM): hosts step this many ticks in parallel between control-plane
// syncs, so migrations, alarm processing and attacker moves happen at
// quantum granularity.
const syncEvery = 50

// vmKind distinguishes the cluster's VM roles.
type vmKind uint8

const (
	kindVictim vmKind = iota
	kindAttacker
	kindUtility
)

// vmRec is the cluster-level record of one VM: where it lives now, what
// it is, and the placement-dynamics state attached to it. VM identity is
// the (unique) name; host/id change on migration.
type vmRec struct {
	name string
	kind vmKind
	app  string // workload abbreviation (victims/utilities)

	host      int
	id        vmm.VMID
	inTransit bool

	// watch is the victim's detection/accounting session (nil for
	// attackers and utilities). It travels with the VM across hosts.
	watch *watch

	// Attacker dynamics state.
	target    string  // victim name a targeted attacker pursues
	chaseAt   float64 // when a pending re-co-location fires (0 = none)
	nextChurn float64 // next churn relocation time
}

// watch is a victim's per-tick accounting and (optionally) its detection
// session. It is owned by exactly one host at a time and is only touched
// by that host's step loop during a quantum, so parallel host stepping
// never shares it.
type watch struct {
	rec *vmRec
	vm  *vmm.VM
	det core.Detector // nil: speed accounting only

	alarm      core.IncidentFold
	speedSum   float64
	alarmTicks uint64
}

// alarmEvent is one buffered detector alarm transition.
type alarmEvent struct {
	time    float64
	session string
	raised  bool
}

// host is one simulated physical machine plus the cluster's host-local
// bookkeeping. During a quantum only its own step loop touches it.
type host struct {
	id   int
	name string
	srv  *vmm.Server

	// watches are the victim sessions resident here, in admission order.
	watches []*watch
	// events buffers this quantum's alarm transitions for the serial
	// control-plane merge.
	events []alarmEvent
	// apps/attackers are the resident counts by role.
	apps      int
	attackers int
	// speed is the EWMA of resident application speed — the observable
	// contention signal the Spread scheduler reads. 1 = uncontended.
	speed float64
}

// residents returns the number of VMs currently living on the host.
func (h *host) residents() int { return h.apps + h.attackers }

// run steps the host q ticks, feeding resident victims' samples to their
// detectors and buffering alarm transitions. Everything it touches is
// host-local.
func (h *host) run(q int) {
	for i := 0; i < q; i++ {
		res := h.srv.Step()
		for _, w := range h.watches {
			w.speedSum += w.vm.LastSpeed()
			if w.alarm.Active() {
				w.alarmTicks++
			}
			if w.det == nil {
				continue
			}
			for _, d := range w.det.Push(res.Samples[w.vm.ID()]) {
				if _, edge := w.alarm.Observe(d); edge {
					h.events = append(h.events, alarmEvent{time: d.Time, session: w.rec.name, raised: d.Alarm})
				}
			}
		}
	}
	// Refresh the contention EWMA from the quantum's final tick: the
	// mean speed of resident applications in ascending id order, 1 when
	// the host is empty.
	sum, n := 0.0, 0
	for _, vm := range h.srv.LiveVMs() {
		if vm.App() != nil {
			sum += vm.LastSpeed()
			n++
		}
	}
	mean := 1.0
	if n > 0 {
		mean = sum / float64(n)
	}
	h.speed = 0.5*h.speed + 0.5*mean
}

// resident adjusts the host's resident count for a VM of the given kind
// by delta.
func (h *host) resident(kind vmKind, delta int) {
	if kind == kindAttacker {
		h.attackers += delta
	} else {
		h.apps += delta
	}
}

// detachWatch removes the watch from the host's session list.
func (h *host) detachWatch(w *watch) {
	for i, x := range h.watches {
		if x == w {
			h.watches = append(h.watches[:i], h.watches[i+1:]...)
			return
		}
	}
}

// transit is one VM state in flight between hosts.
type transit struct {
	st   *vmm.VMState
	rec  *vmRec
	dest int
	due  uint64
}

// Cluster is a lockstep multi-host datacenter simulation.
type Cluster struct {
	cfg    Config
	hosts  []*host
	sched  scheduler
	rng    *sim.RNG
	runner par.Runner

	eng *respond.Engine
	act *actuator

	recs   []*vmRec
	byName map[string]*vmRec

	inflight []*transit
	eventBuf []alarmEvent

	tick uint64
	tpcm float64

	// colocOn / colocAll accumulate targeted-attacker co-residence time
	// (numerator / denominator, in attacker-ticks).
	colocOn, colocAll uint64

	started bool

	// Control-plane event counts (Result); only the serial phase of a
	// quantum writes them.
	migrations, attackerMoves, alarmEvents int
}

// New builds an empty cluster. Populate it with AddVictim / AddAttacker /
// AddUtility, then Run it.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts < 2 {
		return nil, fmt.Errorf("cluster: need >= 2 hosts for migration, got %d", cfg.Hosts)
	}
	if cfg.Downtime < 0 {
		return nil, fmt.Errorf("cluster: negative migration downtime %v", cfg.Downtime)
	}
	if !(cfg.RelocationDelay > 0) || !(cfg.ChurnInterval > 0) || cfg.HostCapacity <= 0 {
		return nil, fmt.Errorf("cluster: relocation delay %v, churn interval %v and host capacity %d must be positive",
			cfg.RelocationDelay, cfg.ChurnInterval, cfg.HostCapacity)
	}
	sched, err := newScheduler(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		sched:  sched,
		rng:    sim.NewRNG(cfg.Seed),
		runner: par.Runner{Workers: cfg.Workers},
		byName: make(map[string]*vmRec),
		tpcm:   cfg.Host.TPCM,
	}
	for i := 0; i < cfg.Hosts; i++ {
		hcfg := cfg.Host
		hcfg.Seed = c.rng.Uint64()
		srv, err := vmm.NewServer(hcfg)
		if err != nil {
			return nil, err
		}
		if cfg.HypervisorLoad > 0 {
			if err := srv.SetHypervisorLoad(cfg.HypervisorLoad); err != nil {
				return nil, err
			}
		}
		c.hosts = append(c.hosts, &host{id: i, name: fmt.Sprintf("host%03d", i), srv: srv, speed: 1})
	}
	if cfg.Detector != nil {
		c.act = &actuator{c: c}
		if c.eng, err = respond.New(cfg.Respond, c.act); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// HostName returns the display name of host i.
func (c *Cluster) HostName(i int) string { return c.hosts[i].name }

// Locate returns the host the named VM currently resides on. ok is
// false for unknown VMs and for VMs in migration transit.
func (c *Cluster) Locate(name string) (hostID int, ok bool) {
	rec, found := c.byName[name]
	if !found || rec.inTransit {
		return 0, false
	}
	return rec.host, true
}

// Hosts returns the number of hosts.
func (c *Cluster) Hosts() int { return len(c.hosts) }

// Now returns the cluster's lockstep simulated time.
func (c *Cluster) Now() float64 { return float64(c.tick) * c.tpcm }

// addRec validates the name, registers the record, and creates the VM on
// the chosen host.
func (c *Cluster) addRec(rec *vmRec, h int, build func(srv *vmm.Server) (*vmm.VM, error)) (*vmm.VM, error) {
	if c.started {
		return nil, fmt.Errorf("cluster: cannot add %q after Run started", rec.name)
	}
	if rec.name == "" {
		return nil, fmt.Errorf("cluster: empty VM name")
	}
	if _, dup := c.byName[rec.name]; dup {
		return nil, fmt.Errorf("cluster: duplicate VM name %q", rec.name)
	}
	if h < 0 || h >= len(c.hosts) {
		return nil, fmt.Errorf("cluster: placement returned invalid host %d", h)
	}
	vm, err := build(c.hosts[h].srv)
	if err != nil {
		return nil, err
	}
	rec.host, rec.id = h, vm.ID()
	c.hosts[h].resident(rec.kind, +1)
	c.recs = append(c.recs, rec)
	c.byName[rec.name] = rec
	return vm, nil
}

// AddVictim places a protected VM running the given application (by
// Table II abbreviation, as a recurring service) via the scheduler, and
// opens its detection session when the cluster has a detector factory.
func (c *Cluster) AddVictim(name, app string) error {
	spec, err := workload.ByAbbrev(app)
	if err != nil {
		return err
	}
	rec := &vmRec{name: name, kind: kindVictim, app: app}
	vm, err := c.addRec(rec, c.sched.place(c), func(srv *vmm.Server) (*vmm.VM, error) {
		return srv.AddApp(name, spec.Service())
	})
	if err != nil {
		return err
	}
	w := &watch{rec: rec, vm: vm}
	if c.cfg.Detector != nil {
		if w.det, err = c.cfg.Detector(app); err != nil {
			return err
		}
	}
	rec.watch = w
	c.hosts[rec.host].watches = append(c.hosts[rec.host].watches, w)
	return nil
}

// AddUtility places a benign background VM via the scheduler.
func (c *Cluster) AddUtility(name string) error {
	_, err := c.addRec(&vmRec{name: name, kind: kindUtility, app: "UTIL"}, c.sched.place(c), func(srv *vmm.Server) (*vmm.VM, error) {
		return srv.AddApp(name, workload.Utility())
	})
	return err
}

// AddAttacker places an attack VM according to the attacker placement
// policy. target names the victim a targeted attacker pursues (must
// exist; ignored by the other policies, where it may be empty).
func (c *Cluster) AddAttacker(name string, atk *attack.Attacker, target string) error {
	rec := &vmRec{name: name, kind: kindAttacker, target: target, nextChurn: c.cfg.ChurnInterval}
	var h int
	switch c.cfg.Placement {
	case AttackTargeted:
		t, ok := c.byName[target]
		if !ok || t.kind != kindVictim {
			return fmt.Errorf("cluster: targeted attacker %q has unknown target victim %q", name, target)
		}
		h = t.host
	case AttackRandom, AttackChurn:
		h = c.rng.Intn(len(c.hosts))
	default:
		return fmt.Errorf("cluster: unknown attacker policy %v", c.cfg.Placement)
	}
	_, err := c.addRec(rec, h, func(srv *vmm.Server) (*vmm.VM, error) {
		return srv.AddAttacker(name, atk)
	})
	return err
}

// ticksFor converts a duration to whole ticks.
func (c *Cluster) ticksFor(dur float64) uint64 {
	return uint64(math.Round(dur / c.tpcm))
}

// MigrateVM moves the named VM to the scheduler-chosen target host,
// applying the configured transit downtime for victims/utilities
// (attacker self-relocations are instant: their cost is modelled by the
// relocation delay, not the move). It is the cluster-level entry point
// the respond actuator and the attacker dynamics share.
func (c *Cluster) MigrateVM(name string) (string, error) {
	rec, ok := c.byName[name]
	if !ok {
		return "", fmt.Errorf("cluster: unknown VM %q", name)
	}
	dest := c.sched.migrationTarget(c, rec.host)
	if err := c.moveVM(rec, dest, c.ticksFor(c.cfg.Downtime)); err != nil {
		return "", err
	}
	c.migrations++
	return c.hosts[dest].name, nil
}

// moveVM exports the VM from its host and either admits it at the
// destination immediately (downTicks 0: lockstep live migration) or
// queues the admission for the first sync quantum past the downtime.
func (c *Cluster) moveVM(rec *vmRec, dest int, downTicks uint64) error {
	if rec.inTransit {
		return fmt.Errorf("cluster: VM %q already in transit", rec.name)
	}
	if dest < 0 || dest >= len(c.hosts) || dest == rec.host {
		return fmt.Errorf("cluster: invalid migration target %d for VM %q on host %d", dest, rec.name, rec.host)
	}
	h := c.hosts[rec.host]
	st, err := h.srv.ExportVM(rec.id)
	if err != nil {
		return err
	}
	h.resident(rec.kind, -1)
	if rec.watch != nil {
		h.detachWatch(rec.watch)
	}
	rec.inTransit = true
	tr := &transit{st: st, rec: rec, dest: dest, due: c.tick + downTicks}
	if downTicks == 0 {
		return c.admit(tr)
	}
	c.inflight = append(c.inflight, tr)
	return nil
}

// admit lands an in-flight VM on its destination host.
func (c *Cluster) admit(tr *transit) error {
	h := c.hosts[tr.dest]
	vm, err := h.srv.AdmitVM(tr.st)
	if err != nil {
		return err
	}
	rec := tr.rec
	rec.host, rec.id, rec.inTransit = tr.dest, vm.ID(), false
	h.resident(rec.kind, +1)
	if rec.watch != nil {
		rec.watch.vm = vm
		h.watches = append(h.watches, rec.watch)
	}
	return nil
}

// Step advances the whole cluster by one sync quantum of q ticks: all
// hosts step in parallel, each worker stepping one contiguous run of
// hosts in host order, then the serial control plane lands due
// migrations, feeds buffered alarm transitions to the respond engine,
// and drives attacker placement dynamics. Exposed for the benchmark
// harness; Run is the main loop.
//
// Hosts are populated in turn, so neighbouring hosts' VM state sits in
// neighbouring heap objects; workers stepping neighbouring hosts at once
// would write the same cache lines every tick. One contiguous run per
// worker keeps each core on its own hosts' lines.
func (c *Cluster) Step(q int) error {
	if q <= 0 {
		return fmt.Errorf("cluster: non-positive quantum %d", q)
	}
	c.started = true
	// Parallel phase: hosts are independent; everything run() touches is
	// host-local, and the per-host event buffers are merged below in a
	// fixed order, so any worker count produces identical state. Worker k
	// steps hosts [k·n/w, (k+1)·n/w); at one worker that is the serial
	// loop.
	n, w := len(c.hosts), c.cfg.Workers
	if w <= 0 {
		w = par.Parallelism()
	}
	w = min(w, n)
	if err := c.runner.Do(w, func(k int) error {
		for _, h := range c.hosts[k*n/w : (k+1)*n/w] {
			h.run(q)
		}
		return nil
	}); err != nil {
		return err
	}
	c.tick += uint64(q)
	now := c.Now()

	// Serial control plane, in fixed order.
	// 1. Land due migrations, FIFO.
	kept := c.inflight[:0]
	for _, tr := range c.inflight {
		if tr.due <= c.tick {
			if err := c.admit(tr); err != nil {
				return err
			}
		} else {
			kept = append(kept, tr)
		}
	}
	c.inflight = kept

	// 2. Merge alarm transitions by time; ties resolve by host id then
	// emission order (the concatenation order), keeping the merge
	// independent of goroutine scheduling.
	c.eventBuf = c.eventBuf[:0]
	for _, h := range c.hosts {
		c.eventBuf = append(c.eventBuf, h.events...)
		h.events = h.events[:0]
	}
	sort.SliceStable(c.eventBuf, func(i, j int) bool { return c.eventBuf[i].time < c.eventBuf[j].time })
	if c.eng != nil {
		for _, ev := range c.eventBuf {
			c.alarmEvents++
			// The cluster is one clock: every session steps to ev.time.
			c.eng.Tick(ev.time)
			if err := c.eng.Observe(ev.session, ev.time, ev.raised); err != nil {
				return err
			}
		}
		c.eng.Tick(now)
	}

	// 3. Attacker placement dynamics.
	if err := c.driveAttackers(now); err != nil {
		return err
	}

	// 4. Co-location accounting, at quantum granularity.
	for _, rec := range c.recs {
		if rec.kind != kindAttacker || rec.target == "" {
			continue
		}
		c.colocAll += uint64(q)
		t, ok := c.byName[rec.target]
		if ok && !rec.inTransit && !t.inTransit && t.host == rec.host {
			c.colocOn += uint64(q)
		}
	}
	return nil
}

// driveAttackers advances the attacker co-location strategies. Runs on
// the serial control plane in record order, so RNG draws are identical
// at any worker count.
func (c *Cluster) driveAttackers(now float64) error {
	for _, rec := range c.recs {
		if rec.kind != kindAttacker || rec.inTransit {
			continue
		}
		switch c.cfg.Placement {
		case AttackTargeted:
			t, ok := c.byName[rec.target]
			if !ok {
				continue
			}
			if !t.inTransit && t.host == rec.host {
				rec.chaseAt = 0
				continue
			}
			if rec.chaseAt <= 0 {
				// Victim escaped: start probing for its new host.
				rec.chaseAt = now + c.cfg.RelocationDelay
				continue
			}
			if now >= rec.chaseAt && !t.inTransit {
				if err := c.moveVM(rec, t.host, 0); err != nil {
					return err
				}
				c.attackerMoves++
				rec.chaseAt = 0
			}
		case AttackChurn:
			if now >= rec.nextChurn {
				// The draw always happens so the RNG stream does not
				// depend on the current location.
				dest := c.rng.Intn(len(c.hosts))
				if dest != rec.host {
					if err := c.moveVM(rec, dest, 0); err != nil {
						return err
					}
					c.attackerMoves++
				}
				rec.nextChurn = now + c.cfg.ChurnInterval
			}
		}
	}
	return nil
}

// Result summarizes one cluster run.
type Result struct {
	// Duration is the simulated run length in seconds.
	Duration float64
	// Hosts and VMs describe the population.
	Hosts, VMs int
	// MeanVictimSpeed is the victims' mean effective execution speed
	// over the whole run (1 = full speed; in-flight ticks count as 0;
	// 0 before any tick is stepped).
	MeanVictimSpeed float64
	// Migrations counts defender-initiated victim migrations.
	Migrations int
	// AttackerMoves counts attacker self-relocations (chases + churn).
	AttackerMoves int
	// AlarmTransitions counts detector alarm raise/clear events.
	AlarmTransitions int
	// AlarmFraction is the fraction of victim-time spent under a raised
	// alarm (0 before any tick is stepped).
	AlarmFraction float64
	// ColocationFraction is the fraction of attacker-time that targeted
	// attackers spent co-resident with their target (quantum
	// granularity; 0 when no attacker has a target).
	ColocationFraction float64
	// Respond carries the engine counters (zero value without a
	// detector).
	Respond respond.Stats
}

// Run steps the cluster until simulated time dur and returns the run
// summary. It may be called repeatedly to extend a run; the result
// always covers the whole simulation so far. A negative, NaN or
// infinite dur is an error.
func (c *Cluster) Run(dur float64) (*Result, error) {
	if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		return nil, fmt.Errorf("cluster: invalid run duration %v", dur)
	}
	end := c.ticksFor(dur)
	for c.tick < end {
		step := syncEvery
		if rem := end - c.tick; uint64(step) > rem {
			step = int(rem)
		}
		if err := c.Step(step); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Duration:         c.Now(),
		Hosts:            len(c.hosts),
		VMs:              len(c.recs),
		Migrations:       c.migrations,
		AttackerMoves:    c.attackerMoves,
		AlarmTransitions: c.alarmEvents,
	}
	var speedSum, alarmSum float64
	victims := 0
	for _, rec := range c.recs {
		if rec.kind != kindVictim || rec.watch == nil {
			continue
		}
		victims++
		speedSum += rec.watch.speedSum / float64(c.tick)
		alarmSum += float64(rec.watch.alarmTicks) / float64(c.tick)
	}
	if victims > 0 && c.tick > 0 {
		res.MeanVictimSpeed = speedSum / float64(victims)
		res.AlarmFraction = alarmSum / float64(victims)
	}
	if c.colocAll > 0 {
		res.ColocationFraction = float64(c.colocOn) / float64(c.colocAll)
	}
	if c.eng != nil {
		res.Respond = c.eng.Stats()
	}
	return res, nil
}
