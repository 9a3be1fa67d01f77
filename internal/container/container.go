// Package container models the container-based services the paper's future
// work targets (Section VIII: "memory DoS attacks in the container-based
// services and systems such as AWS Lambda and Kubernetes").
//
// The substrate differs from the VM testbed (internal/vmm) in the ways
// that matter for detection:
//
//   - density and churn: a host packs many short-lived function instances;
//     an instance often lives for seconds — far less than the W = 200
//     samples SDS/B needs to even compute one moving-average window, let
//     alone a profile;
//   - the observable unit is the *function*, not the instance: the
//     platform aggregates hardware counters per function across its
//     currently running instances, giving detectors a continuous stream
//     even though individual instances come and go;
//   - attacks hit everyone: the bus-locking and cleansing mechanics are
//     the same shared-hardware phenomena, applied through the same bus
//     model.
//
// The package reuses the workload models (one instance = one invocation)
// and the bus arbiter; see experiments.ContainerStudy for the detection
// results on this substrate.
package container

import (
	"fmt"

	"memdos/internal/attack"
	"memdos/internal/bus"
	"memdos/internal/pcm"
	"memdos/internal/sim"
	"memdos/internal/workload"
)

// FunctionSpec describes one deployed function (or container service).
type FunctionSpec struct {
	// Name identifies the function.
	Name string
	// Invocation is the per-instance behaviour; its WorkSeconds is the
	// invocation length (must be positive — instances are finite).
	Invocation workload.Spec
	// ColdStart is the gap in seconds between an instance finishing and
	// its replacement starting.
	ColdStart float64
	// Concurrency is how many instances run in parallel.
	Concurrency int
}

// Validate reports whether the spec is usable.
func (f FunctionSpec) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("container: function needs a name")
	}
	if err := f.Invocation.Validate(); err != nil {
		return err
	}
	if f.Invocation.WorkSeconds <= 0 {
		return fmt.Errorf("container: function %s needs finite invocations (WorkSeconds > 0)", f.Name)
	}
	if f.ColdStart < 0 {
		return fmt.Errorf("container: function %s has negative cold start", f.Name)
	}
	if f.Concurrency <= 0 {
		return fmt.Errorf("container: function %s needs positive concurrency", f.Name)
	}
	return nil
}

// instanceSlot is one concurrency slot of a function: it runs an instance,
// and after the instance completes waits out the cold start before the
// next one spawns.
type instanceSlot struct {
	inst      *workload.Instance
	idleUntil float64
	lastSpeed float64
}

// Function is a deployed function with running instances and aggregated
// counters.
type Function struct {
	spec    FunctionSpec
	id      int
	slots   []*instanceSlot
	counter *pcm.Counter
	rng     *sim.RNG

	// Completed counts finished invocations (the throughput metric).
	completed int
}

// Name returns the function name.
func (f *Function) Name() string { return f.spec.Name }

// Index returns the function's position in Deploy order, its slot in
// StepResult.Samples.
func (f *Function) Index() int { return f.id }

// Completed returns the number of finished invocations so far.
func (f *Function) Completed() int { return f.completed }

// MeanSpeed returns the mean execution speed of the currently running
// instances (1.0 = unimpeded; idle slots excluded, 1.0 if all idle).
func (f *Function) MeanSpeed() float64 {
	var sum float64
	n := 0
	for _, s := range f.slots {
		if s.inst != nil {
			sum += s.lastSpeed
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Config configures a Platform.
type Config struct {
	// TPCM is the counter sampling interval and simulation step.
	TPCM float64
	// MissPenalty converts excess miss ratio into stall (as in vmm).
	MissPenalty float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig mirrors the VM testbed's parameters.
func DefaultConfig() Config {
	return Config{TPCM: 0.01, MissPenalty: 1.2, Seed: 1}
}

// Platform is one container host.
type Platform struct {
	cfg   Config
	clock *sim.Clock
	bus   *bus.Bus
	rng   *sim.RNG

	functions []*Function
	attackers []*attack.Attacker

	// samples backs StepResult.Samples, reused across steps.
	samples []pcm.Sample
}

// NewPlatform returns an empty host.
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.TPCM <= 0 {
		return nil, fmt.Errorf("container: non-positive TPCM %v", cfg.TPCM)
	}
	if cfg.MissPenalty < 0 {
		return nil, fmt.Errorf("container: negative miss penalty %v", cfg.MissPenalty)
	}
	return &Platform{
		cfg:   cfg,
		clock: sim.NewClock(cfg.TPCM),
		bus:   bus.New(0),
		rng:   sim.NewRNG(cfg.Seed),
	}, nil
}

// Deploy adds a function to the host.
func (p *Platform) Deploy(spec FunctionSpec) (*Function, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f := &Function{
		spec:    spec,
		id:      len(p.functions),
		counter: pcm.MustNewCounter(p.cfg.TPCM),
		rng:     p.rng.Split(),
	}
	for i := 0; i < spec.Concurrency; i++ {
		slot := &instanceSlot{lastSpeed: 1}
		slot.inst = spec.Invocation.MustNew(f.rng.Split())
		// Stagger the initial instances across the invocation cycle so
		// the slots don't complete (and cold-start) in lockstep — as on a
		// real platform, where requests arrive asynchronously.
		slot.inst.Advance(f.rng.Uniform(0, spec.Invocation.WorkSeconds), 1)
		f.slots = append(f.slots, slot)
	}
	p.functions = append(p.functions, f)
	return f, nil
}

// AddAttacker co-locates an attack container.
func (p *Platform) AddAttacker(a *attack.Attacker) error {
	if a == nil {
		return fmt.Errorf("container: nil attacker")
	}
	p.attackers = append(p.attackers, a)
	return nil
}

// Now returns the simulated time.
func (p *Platform) Now() float64 { return p.clock.Now() }

// StepResult carries the step's per-function samples, in Deploy order:
// Samples[f.Index()] is function f's sample for the T_PCM interval ending
// at Time. Samples is valid until the next Step.
type StepResult struct {
	Time    float64
	Samples []pcm.Sample
}

// attackerOwner is the bus owner id used for attack containers. The bus
// indexes owners densely from 0, so the attacker takes owner 0 and
// functions map to id+1 (see funcOwner).
const attackerOwner bus.Owner = 0

// funcOwner maps a function id to its bus owner.
func funcOwner(id int) bus.Owner { return bus.Owner(id + 1) }

// Step advances the host one tick.
func (p *Platform) Step() StepResult {
	now := p.clock.Now()
	dt := p.cfg.TPCM

	cleanse := 0.0
	for _, a := range p.attackers {
		if !a.Active(now) {
			continue
		}
		switch a.Kind() {
		case attack.BusLock:
			p.bus.RequestLock(attackerOwner, a.IntensityAt(now)*dt)
			p.bus.RequestAccesses(attackerOwner, a.AccessRate()*dt)
		case attack.LLCCleansing:
			if in := a.IntensityAt(now); in > cleanse {
				cleanse = in
			}
			p.bus.RequestAccesses(attackerOwner, a.AccessRate()*dt)
		}
	}

	type slotState struct {
		f         *Function
		slot      *instanceSlot
		requested float64
		miss      float64
		stall     float64
	}
	var states []slotState
	for _, f := range p.functions {
		for _, slot := range f.slots {
			if slot.inst == nil {
				if now >= slot.idleUntil {
					slot.inst = f.spec.Invocation.MustNew(f.rng.Split())
				} else {
					continue
				}
			}
			demand, m0 := slot.inst.Demand(dt)
			m := m0 + (1-m0)*cleanse
			stall := 1.0
			if excess := m - m0; excess > 0 {
				stall = 1 / (1 + p.cfg.MissPenalty*excess)
			}
			req := demand * stall
			p.bus.RequestAccesses(funcOwner(f.id), req)
			states = append(states, slotState{f: f, slot: slot, requested: req, miss: m, stall: stall})
		}
	}

	delivered := p.bus.Resolve(dt)
	// Per-function totals to apportion delivered bandwidth across slots.
	reqTotal := make(map[int]float64)
	for _, st := range states {
		reqTotal[st.f.id] += st.requested
	}

	accPerF := make(map[int]float64)
	missPerF := make(map[int]float64)
	for _, st := range states {
		share := 0.0
		if total := reqTotal[st.f.id]; total > 0 {
			share = st.requested / total * delivered.Of(funcOwner(st.f.id))
		}
		ratio := 1.0
		if st.requested > 0 {
			ratio = share / st.requested
		}
		speed := st.stall * ratio
		st.slot.lastSpeed = speed
		st.slot.inst.Advance(dt, speed)
		accPerF[st.f.id] += share
		missPerF[st.f.id] += share * st.miss
		if st.slot.inst.Done() {
			st.f.completed++
			st.slot.inst = nil
			st.slot.idleUntil = now + st.f.spec.ColdStart
		}
	}

	if len(p.samples) < len(p.functions) {
		p.samples = make([]pcm.Sample, len(p.functions))
	}
	res := StepResult{Time: now + dt, Samples: p.samples[:len(p.functions)]}
	for _, f := range p.functions {
		f.counter.Observe(&res.Samples[f.id], accPerF[f.id], missPerF[f.id])
	}
	p.clock.Tick()
	return res
}

// RunUntil steps the host until simulated time t.
func (p *Platform) RunUntil(t float64, onStep func(StepResult)) {
	for p.clock.Now() < t {
		res := p.Step()
		if onStep != nil {
			onStep(res)
		}
	}
}
