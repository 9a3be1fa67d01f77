// Package vmm models the virtualized server of the paper's testbed: a KVM
// hypervisor hosting a protected (victim) VM, an attack VM, and several
// benign utility VMs, all sharing the memory bus and LLC.
//
// The server advances in fixed steps of T_PCM seconds. Each step it:
//
//  1. collects the attack VM's demands (atomic bus-lock time and/or LLC
//     cleansing pressure),
//  2. collects every application VM's intrinsic memory demand, attenuated
//     by the stall caused by cleansing-inflated misses,
//  3. arbitrates the shared bus (bus locking throttles everyone else),
//  4. advances each application at the resulting effective speed — so
//     attacks slow victims down, stretch periodic patterns, and lengthen
//     completion times, and
//  5. feeds each VM's delivered accesses and misses to its PCM counter.
//
// The hypervisor also exposes the two mechanisms detectors need: execution
// throttling (used by the KStest baseline to collect clean reference
// samples — pausing every VM except the protected one) and a hypervisor CPU
// load knob that models the detector's own processing cost, which steals a
// fraction of every VM's progress.
package vmm

import (
	"fmt"
	"slices"

	"memdos/internal/attack"
	"memdos/internal/bus"
	"memdos/internal/mem"
	"memdos/internal/pcm"
	"memdos/internal/sim"
	"memdos/internal/workload"
)

// DRAM-side modelling constants, active only when Config.Mem is set.
const (
	// memAppRowHit is the intrinsic row-buffer hit fraction of a mixed
	// application workload (moderate spatial locality).
	memAppRowHit = 0.55
	// memHogRowHit is the sequential bandwidth hog's intrinsic row-buffer
	// hit fraction (streaming keeps the row open almost always).
	memHogRowHit = 0.92
	// memWriteCost is the channel-time multiplier of a written line
	// relative to a read (read-for-ownership + writeback).
	memWriteCost = 1.5
	// memIssueFloor bounds how far DRAM stalls can suppress a VM's issue
	// rate: even a fully memory-stalled core keeps memIssueFloor of its
	// LLC access rate in flight (MLP + prefetchers keep requests issuing
	// while retirement stalls). This gap between issue rate and progress
	// is what lets a DRAM hog slow a victim far more than its AccessNum
	// dips — the detector-evasion asymmetry of Bechtel & Yun
	// (arXiv:2005.10864).
	memIssueFloor = 0.55
)

// VMID identifies a VM on one server.
type VMID int

// Config configures a Server.
type Config struct {
	// TPCM is the PCM sampling interval and simulation step (seconds).
	TPCM float64
	// MissPenalty converts excess miss ratio into progress stall:
	// speed = 1 / (1 + MissPenalty * (missRatio - intrinsicMissRatio)).
	MissPenalty float64
	// Seed seeds the server's RNG; every VM derives its own stream.
	Seed uint64
	// Mem, when non-nil, puts a DRAM memory-controller model behind the
	// bus/cache layer: application misses and bandwidth-hog streams become
	// line-sized DRAM requests arbitrated per NUMA socket, and every VM's
	// PCM samples grow delivered-bandwidth and average-latency counters.
	// nil (the default) keeps the original bus-only server, bit for bit.
	Mem *mem.NUMAConfig
	// DisableHistory has no effect: a PCM counter keeps no sample history
	// (a study records the samples it reads from StepResult). It remains
	// because the e2ebench harness still sets it.
	DisableHistory bool
}

// DefaultConfig returns the configuration matching the paper's testbed
// parameters (T_PCM = 0.01 s).
func DefaultConfig() Config {
	return Config{TPCM: 0.01, MissPenalty: 1.2, Seed: 1}
}

// VM is one virtual machine. Exactly one of app/attacker is non-nil.
type VM struct {
	id       VMID
	name     string
	app      *workload.Instance
	attacker *attack.Attacker

	// doneAt records when a finite app completed (0 = not yet).
	doneAt float64
	// lastSpeed is the effective speed of the most recent step.
	lastSpeed float64
	// departed marks a VM whose state was exported for migration: the
	// slot remains (VM ids are dense slice indices) but the husk is off
	// the server's live list and both arbiters' owner lists, so Step never
	// visits it, and every setter on it is a successful no-op.
	departed bool
}

// ID returns the VM's identifier.
func (v *VM) ID() VMID { return v.id }

// Name returns the VM's name.
func (v *VM) Name() string { return v.name }

// App returns the VM's workload instance (nil for attack VMs).
func (v *VM) App() *workload.Instance { return v.app }

// DoneAt returns the simulated time the VM's finite app completed, or 0.
func (v *VM) DoneAt() float64 { return v.doneAt }

// Completed reports whether the VM's finite app has completed. Callers
// should prefer it over comparing DoneAt against the zero sentinel.
func (v *VM) Completed() bool { return v.doneAt > 0 }

// LastSpeed returns the effective execution speed of the last step.
func (v *VM) LastSpeed() float64 { return v.lastSpeed }

// Departed reports whether the VM's state was exported for migration;
// a departed VM is an inert placeholder keeping its slot's id stable.
func (v *VM) Departed() bool { return v.departed }

// Server is one simulated physical machine.
type Server struct {
	cfg   Config
	clock *sim.Clock
	bus   *bus.Bus
	rng   *sim.RNG

	// vms, counters, execThrottle and partitioned are dense slices
	// indexed by VMID (a VM's id is its index in vms): no map iteration
	// anywhere near the step loop, so per-VM state can never acquire a
	// randomized visit order, and the hot path stays allocation-free.
	vms      []*VM
	counters []*pcm.Counter
	// live lists the non-departed VMs in ascending id order (an added or
	// admitted VM's id is always the largest yet). Step walks it alone,
	// so a husk costs nothing per tick.
	live []*VM

	hyperLoad      float64
	throttleUntil  float64
	throttleExcept VMID

	// execThrottle is the per-VM execution-throttle fraction in [0,1):
	// the mitigation primitive of Zhang et al. (arXiv:1603.03404) — the
	// suspect VM runs at (1-frac) of its share, which scales an
	// attacker's effective intensity and an application's progress alike.
	execThrottle []float64
	// partitioned marks VMs whose LLC footprint is pseudo-partitioned
	// away from the other tenants: their cleansing pressure is contained.
	partitioned []bool

	// mc is the DRAM model (nil unless Config.Mem is set); memStall is the
	// one-step-lagged issue attenuation each app VM carries into the next
	// step (floored at memIssueFloor, see the constant); memBaseLat is the
	// uncontended per-line latency progress is measured against.
	mc         *mem.Controller
	memStall   []float64
	memBaseLat float64

	// Per-step scratch, grown with vms so the per-tick hot loop does not
	// allocate. stepStates is indexed by position in live; stepSamples by
	// VMID, and backs StepResult.Samples (a husk's slot is zeroed once, on
	// export).
	stepStates  []appState
	stepSamples []pcm.Sample
}

// appState is the per-VM demand bookkeeping of one step's phase 2. The
// active flag distinguishes "VM ran this step" from the zero value.
type appState struct {
	requested float64
	miss      float64
	stall     float64
	thr       float64
	active    bool
}

// NewServer returns an empty server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.TPCM <= 0 {
		return nil, fmt.Errorf("vmm: non-positive TPCM %v", cfg.TPCM)
	}
	if cfg.MissPenalty < 0 {
		return nil, fmt.Errorf("vmm: negative miss penalty %v", cfg.MissPenalty)
	}
	s := &Server{
		cfg:            cfg,
		clock:          sim.NewClock(cfg.TPCM),
		bus:            bus.New(0), // uncapped: contention comes from lock time
		rng:            sim.NewRNG(cfg.Seed),
		throttleExcept: -1,
	}
	if cfg.Mem != nil {
		mc, err := mem.New(*cfg.Mem)
		if err != nil {
			return nil, err
		}
		s.mc = mc
		s.memBaseLat = cfg.Mem.BaselineLatency(memAppRowHit)
	}
	return s, nil
}

// MustNewServer is NewServer but panics on bad configuration.
func MustNewServer(cfg Config) *Server {
	s, err := NewServer(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// AddApp creates a VM running the given application spec and returns it.
func (s *Server) AddApp(name string, spec workload.Spec) (*VM, error) {
	in, err := spec.New(s.rng.Split())
	if err != nil {
		return nil, err
	}
	vm := &VM{id: VMID(len(s.vms)), name: name, app: in, lastSpeed: 1}
	s.addVM(vm, pcm.MustNewCounter(s.cfg.TPCM))
	return vm, nil
}

// AddAttacker creates a VM running the given attacker and returns it.
func (s *Server) AddAttacker(name string, a *attack.Attacker) (*VM, error) {
	if a == nil {
		return nil, fmt.Errorf("vmm: nil attacker")
	}
	vm := &VM{id: VMID(len(s.vms)), name: name, attacker: a, lastSpeed: 1}
	s.addVM(vm, pcm.MustNewCounter(s.cfg.TPCM))
	return vm, nil
}

// addVM registers the VM and its counter in the dense per-VM state
// slices and on the live list.
func (s *Server) addVM(vm *VM, c *pcm.Counter) {
	s.vms = append(s.vms, vm)
	s.live = append(s.live, vm)
	s.counters = append(s.counters, c)
	s.execThrottle = append(s.execThrottle, 0)
	s.partitioned = append(s.partitioned, false)
	s.memStall = append(s.memStall, 1)
	s.stepStates = append(s.stepStates, appState{})
	s.stepSamples = append(s.stepSamples, pcm.Sample{})
	if s.mc != nil {
		// Default NUMA affinity: round-robin over sockets, overridable via
		// SetVMSocket.
		_ = s.mc.SetHome(mem.Owner(vm.id), int(vm.id)%s.cfg.Mem.Sockets)
	}
}

// VM returns the VM in slot id (a departed husk included), or nil if
// the id is unknown.
func (s *Server) VM(id VMID) *VM {
	if int(id) < 0 || int(id) >= len(s.vms) {
		return nil
	}
	return s.vms[id]
}

// VMs returns the server's VMs in creation order.
func (s *Server) VMs() []*VM { return append([]*VM(nil), s.vms...) }

// LiveVMs returns the non-departed VMs in ascending id order, without
// copying: the slice is the server's own, valid until the next add,
// admission or export, and callers must not modify it.
func (s *Server) LiveVMs() []*VM { return s.live }

// Now returns the current simulated time.
func (s *Server) Now() float64 { return s.clock.Now() }

// TPCM returns the sampling/step interval.
func (s *Server) TPCM() float64 { return s.cfg.TPCM }

// SetHypervisorLoad declares that detector processing consumes the given
// fraction of every VM's CPU, slowing all applications accordingly. This is
// how the performance overhead of each detection scheme is modelled.
func (s *Server) SetHypervisorLoad(frac float64) error {
	if frac < 0 || frac >= 1 {
		return fmt.Errorf("vmm: hypervisor load %v outside [0,1)", frac)
	}
	s.hyperLoad = frac
	return nil
}

// ThrottleOthers pauses every VM except keep for the next dur seconds —
// the execution-throttling primitive the KStest baseline uses to gather
// attack-free reference samples. Pausing stops the attack too, and costs
// all other applications real progress.
func (s *Server) ThrottleOthers(keep VMID, dur float64) error {
	if dur <= 0 {
		return fmt.Errorf("vmm: non-positive throttle duration %v", dur)
	}
	s.throttleUntil = s.clock.Now() + dur
	s.throttleExcept = keep
	return nil
}

// Throttled reports whether the VM is currently paused by throttling.
func (s *Server) Throttled(id VMID) bool {
	return s.clock.Now() < s.throttleUntil && id != s.throttleExcept
}

// SetExecThrottle caps one VM's execution to (1-frac) of its share until
// changed — the graduated per-VM mitigation primitive (Zhang et al.,
// arXiv:1603.03404) the respond engine escalates through. frac 0 clears
// the throttle; frac must be in [0,1). For an attack VM the throttle
// scales the attack's effective intensity and access storm; for an
// application VM it scales progress.
func (s *Server) SetExecThrottle(id VMID, frac float64) error {
	if frac < 0 || frac >= 1 {
		return fmt.Errorf("vmm: exec throttle %v outside [0,1)", frac)
	}
	if int(id) < 0 || int(id) >= len(s.vms) {
		return fmt.Errorf("vmm: no VM %d", id)
	}
	if !s.vms[id].departed {
		s.execThrottle[id] = frac
	}
	return nil
}

// ExecThrottle returns the VM's current execution-throttle fraction.
func (s *Server) ExecThrottle(id VMID) float64 {
	if int(id) < 0 || int(id) >= len(s.execThrottle) {
		return 0
	}
	return s.execThrottle[id]
}

// SetCachePartition toggles pseudo cache-partitioning around one VM:
// while on, its LLC evictions are contained to its own partition, so a
// cleansing attacker stops inflating the other tenants' miss ratios. Bus
// locking is unaffected — the lock is a bus-level mechanism, which is
// why the respond ladder keeps throttling underneath the partition rung.
func (s *Server) SetCachePartition(id VMID, on bool) error {
	if int(id) < 0 || int(id) >= len(s.vms) {
		return fmt.Errorf("vmm: no VM %d", id)
	}
	if !s.vms[id].departed {
		s.partitioned[id] = on
	}
	return nil
}

// CachePartitioned reports whether the VM is pseudo-partitioned.
func (s *Server) CachePartitioned(id VMID) bool {
	return int(id) >= 0 && int(id) < len(s.partitioned) && s.partitioned[id]
}

// StepResult carries the step's PCM samples: Samples[id] is VM id's sample
// for the T_PCM interval ending at Time. A departed VM's slot holds the
// zero Sample. It is the only way to read a VM's samples: counters keep no
// history, so a caller that needs a VM's trace records it from here.
//
// Samples is a view over the server's per-step scratch slice: it is valid
// until the next Step call and must not be retained across steps (every
// in-tree caller consumes it inside the step callback).
type StepResult struct {
	Time    float64
	Samples []pcm.Sample
}

// Step advances the server by one T_PCM tick and returns every VM's PCM
// sample for it.
//
//memdos:hotpath
func (s *Server) Step() StepResult {
	now := s.clock.Now()
	dt := s.cfg.TPCM

	// Phase 1: attacker demands, scaled by any per-VM execution throttle.
	cleansePressure := 0.0
	for _, vm := range s.live {
		if vm.attacker == nil || s.Throttled(vm.id) || !vm.attacker.Active(now) {
			continue
		}
		thr := 1 - s.execThrottle[vm.id]
		switch vm.attacker.Kind() {
		case attack.BusLock:
			s.bus.RequestLock(bus.Owner(vm.id), vm.attacker.IntensityAt(now)*thr*dt)
			s.bus.RequestAccesses(bus.Owner(vm.id), vm.attacker.AccessRate()*thr*dt)
		case attack.LLCCleansing:
			// IntensityAt is always evaluated so ramp edges stay tracked;
			// a partitioned VM's evictions are contained, so its pressure
			// never reaches the other tenants.
			if p := vm.attacker.IntensityAt(now) * thr; p > cleansePressure && !s.partitioned[vm.id] {
				cleansePressure = p
			}
			s.bus.RequestAccesses(bus.Owner(vm.id), vm.attacker.AccessRate()*thr*dt)
		case attack.MemBandwidth:
			// The hog's stream lives below the LLC: its DRAM demand is the
			// raw bytes times the duty cycle (IntensityAt), with written
			// lines costing extra channel time. Without a memory model the
			// stream has nowhere to land and only the modest bus-side
			// access storm remains.
			duty := vm.attacker.IntensityAt(now) * thr
			s.bus.RequestAccesses(bus.Owner(vm.id), vm.attacker.AccessRate()*duty*dt)
			if s.mc != nil {
				rf := vm.attacker.ReadFraction()
				bytes := vm.attacker.BWRate() * duty * dt * (rf + memWriteCost*(1-rf))
				s.mc.Request(mem.Owner(vm.id), bytes, memHogRowHit)
			}
		}
	}

	// Phase 2: application demands, attenuated by cleansing stalls.
	states := s.stepStates[:len(s.live)]
	for i, vm := range s.live {
		if vm.app == nil || s.Throttled(vm.id) || vm.app.Done() {
			states[i] = appState{}
			continue
		}
		demand, m0 := vm.app.Demand(dt)
		m := m0 + (1-m0)*cleansePressure
		stall := 1.0
		if excess := m - m0; excess > 0 {
			stall = 1 / (1 + s.cfg.MissPenalty*excess)
		}
		thr := 1 - s.execThrottle[vm.id]
		requested := demand * stall * thr
		if s.mc != nil {
			// DRAM back-pressure from the previous step attenuates this
			// step's issue rate, floored at memIssueFloor (see constant).
			requested *= s.memStall[vm.id]
			// Each LLC miss is one line of DRAM traffic.
			s.mc.Request(mem.Owner(vm.id), requested*m*s.cfg.Mem.LineBytes, memAppRowHit)
		}
		s.bus.RequestAccesses(bus.Owner(vm.id), requested)
		states[i] = appState{requested: requested, miss: m, stall: stall, thr: thr, active: true}
	}

	// Phase 3: bus arbitration, then DRAM arbitration behind it.
	delivered := s.bus.Resolve(dt)
	var memRes mem.Resolution
	if s.mc != nil {
		memRes = s.mc.Resolve(dt)
	}

	// Phase 4: progress and PCM accounting.
	res := StepResult{Time: now + dt, Samples: s.stepSamples}
	for i, vm := range s.live {
		var accesses, misses float64
		if st := states[i]; st.active {
			d := delivered.Of(bus.Owner(vm.id))
			ratio := 1.0
			if st.requested > 0 {
				ratio = d / st.requested
			}
			speed := st.stall * ratio * (1 - s.hyperLoad) * st.thr
			if s.mc != nil {
				// DRAM contention slows progress two ways: undelivered
				// lines (delivery ratio) and slower lines (latency stretch
				// over the uncontended baseline). The issue-rate floor for
				// the *next* step dips much less than progress does — see
				// memIssueFloor.
				o := mem.Owner(vm.id)
				memFactor := memRes.RatioOf(o)
				if lat := memRes.LatencyOf(o); lat > s.memBaseLat {
					memFactor *= s.memBaseLat / lat
				}
				speed *= memFactor
				s.memStall[vm.id] = memIssueFloor + (1-memIssueFloor)*memFactor
			}
			vm.lastSpeed = speed
			vm.app.Advance(dt, speed)
			if !vm.Completed() && vm.app.Done() {
				vm.doneAt = now + dt
			}
			accesses = d
			misses = d * st.miss
		} else {
			vm.lastSpeed = 0
		}
		if s.mc != nil {
			o := mem.Owner(vm.id)
			if lines := memRes.LinesOf(o); lines > 0 {
				s.counters[vm.id].AddMem(lines*s.cfg.Mem.LineBytes, memRes.LatencySumOf(o), lines)
			}
		}
		res.Samples[vm.id] = s.counters[vm.id].Observe(accesses, misses)
	}

	s.clock.Tick()
	return res
}

// RunUntil steps the server until simulated time t, invoking onStep (if
// non-nil) after every step. onStep may call back into the server (e.g. to
// throttle).
func (s *Server) RunUntil(t float64, onStep func(StepResult)) {
	for s.clock.Now() < t {
		res := s.Step()
		if onStep != nil {
			onStep(res)
		}
	}
}

// VMState is a VM's complete runtime state in flight between servers —
// the payload of a live migration. It carries the workload or attacker
// instance (including its private RNG stream), the PCM counter (so the
// sample timeline continues seamlessly on the destination), and the
// completion record. Per-host mitigation state (execution throttle,
// cache partition) deliberately does NOT travel: it belongs to the
// source hypervisor and a freshly admitted VM starts unmitigated.
type VMState struct {
	name     string
	app      *workload.Instance
	attacker *attack.Attacker
	counter  *pcm.Counter
	doneAt   float64

	exportTick uint64
}

// Name returns the migrating VM's name.
func (st *VMState) Name() string { return st.name }

// IsAttacker reports whether the migrating VM runs an attack program.
func (st *VMState) IsAttacker() bool { return st.attacker != nil }

// ExportVM removes the VM's runtime state from the server for migration
// and returns it. The slot is left as an inert, departed husk (VM ids
// are dense slice indices, so slots never shift): its sample slot is
// zeroed, it leaves the live list and both arbiters' owner lists, and
// any execution throttle, cache partition, bandwidth budget or NUMA
// override applied to the VM is released.
func (s *Server) ExportVM(id VMID) (*VMState, error) {
	if int(id) < 0 || int(id) >= len(s.vms) {
		return nil, fmt.Errorf("vmm: no VM %d", id)
	}
	vm := s.vms[id]
	if vm.departed {
		return nil, fmt.Errorf("vmm: VM %d (%s) already departed", id, vm.name)
	}
	st := &VMState{
		name:       vm.name,
		app:        vm.app,
		attacker:   vm.attacker,
		counter:    s.counters[id],
		doneAt:     vm.doneAt,
		exportTick: s.clock.Ticks(),
	}
	vm.app, vm.attacker, vm.departed = nil, nil, true
	vm.lastSpeed = 0
	s.live = slices.DeleteFunc(s.live, func(v *VM) bool { return v == vm })
	s.counters[id] = nil
	s.execThrottle[id] = 0
	s.partitioned[id] = false
	s.stepSamples[id] = pcm.Sample{}
	s.bus.Release(bus.Owner(id))
	if s.mc != nil {
		// Mitigation state stays with the source hypervisor: the husk's
		// slot drops its bandwidth budget and NUMA overrides.
		_ = s.mc.SetBudget(mem.Owner(id), 0)
		_ = s.mc.SetRemoteFraction(mem.Owner(id), 0)
		s.mc.Release(mem.Owner(id))
	}
	return st, nil
}

// AdmitVM installs a migrated VM's state on this server and returns the
// new VM. The destination must share the source's sampling interval, and
// its clock must be at or past the export tick (hosts stepping in
// lockstep admit at the same tick for a zero-downtime migration; a later
// tick models transit downtime, during which the VM made no progress and
// produced no samples). A state can be admitted exactly once.
func (s *Server) AdmitVM(st *VMState) (*VM, error) {
	if st == nil || st.counter == nil {
		return nil, fmt.Errorf("vmm: nil or already-admitted VM state")
	}
	// Both sides hold a TPCM copied verbatim from their configs, so exact
	// comparison is the intended integrity check.
	if st.counter.TPCM() != s.cfg.TPCM {
		return nil, fmt.Errorf("vmm: sampling interval mismatch: migrating VM %s has TPCM %v, host %v",
			st.name, st.counter.TPCM(), s.cfg.TPCM)
	}
	if s.clock.Ticks() < st.exportTick {
		return nil, fmt.Errorf("vmm: destination clock (tick %d) behind export tick %d of VM %s",
			s.clock.Ticks(), st.exportTick, st.name)
	}
	vm := &VM{id: VMID(len(s.vms)), name: st.name, app: st.app, attacker: st.attacker, doneAt: st.doneAt, lastSpeed: 1}
	c := st.counter
	// Transit downtime produced no samples; realign the counter's sample
	// timeline with the destination clock (a counter's sample count is its
	// VM's tick count). A lockstep zero-downtime admission is a no-op.
	c.SkipToSample(int(s.clock.Ticks()))
	s.addVM(vm, c)
	st.app, st.attacker, st.counter = nil, nil, nil
	return vm, nil
}

// HasMem reports whether the server runs the DRAM memory-controller
// model (Config.Mem was set).
func (s *Server) HasMem() bool { return s.mc != nil }

// memCheck is the shared guard for memory-model-only operations: it
// fails without a memory model or for an unknown VM, and reports whether
// the VM is live. A setter on a departed husk is a successful no-op, so
// the husk never rejoins the controller's owner list.
func (s *Server) memCheck(id VMID) (bool, error) {
	if s.mc == nil {
		return false, fmt.Errorf("vmm: server has no memory model (Config.Mem is nil)")
	}
	if int(id) < 0 || int(id) >= len(s.vms) {
		return false, fmt.Errorf("vmm: no VM %d", id)
	}
	return !s.vms[id].departed, nil
}

// SetVMSocket pins the VM's NUMA home socket (default: VM id modulo
// socket count). Placement decides attack reach: a hog homed on the
// victim's socket contends for the victim's channels directly.
func (s *Server) SetVMSocket(id VMID, socket int) error {
	if live, err := s.memCheck(id); !live {
		return err
	}
	return s.mc.SetHome(mem.Owner(id), socket)
}

// VMSocket returns the VM's NUMA home socket (0 without a memory model).
func (s *Server) VMSocket(id VMID) int {
	if s.mc == nil {
		return 0
	}
	return s.mc.Home(mem.Owner(id))
}

// SetMemRemoteFraction declares what fraction of the VM's DRAM traffic
// targets remotely-homed pages — cross-socket reach for an attacker, or
// a poorly-placed victim's working set.
func (s *Server) SetMemRemoteFraction(id VMID, frac float64) error {
	if live, err := s.memCheck(id); !live {
		return err
	}
	return s.mc.SetRemoteFraction(mem.Owner(id), frac)
}

// SetMemBandwidthLimit applies a MemGuard-style DRAM bandwidth budget to
// the VM in bytes per second (0 clears it) — the reversible mitigation
// primitive behind the respond ladder's bandwidth rung (Zhang et al.,
// arXiv:1603.03404).
func (s *Server) SetMemBandwidthLimit(id VMID, bytesPerSec float64) error {
	if live, err := s.memCheck(id); !live {
		return err
	}
	return s.mc.SetBudget(mem.Owner(id), bytesPerSec)
}

// MemBandwidthLimit returns the VM's DRAM bandwidth budget (0 =
// unlimited or no memory model).
func (s *Server) MemBandwidthLimit(id VMID) float64 {
	if s.mc == nil {
		return 0
	}
	return s.mc.Budget(mem.Owner(id))
}

// MemStats returns the VM's accumulated DRAM statistics.
func (s *Server) MemStats(id VMID) (mem.Stats, error) {
	if _, err := s.memCheck(id); err != nil {
		return mem.Stats{}, err
	}
	return s.mc.Stats(mem.Owner(id)), nil
}
