package container

import (
	"math"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/trace"
	"memdos/internal/workload"
)

// runTrace runs p to time t and returns function f's AccessNum and MissNum
// samples as series on the sample grid (Start = Interval = T_PCM), read
// from each step's StepResult (a counter keeps no history).
func runTrace(p *Platform, f *Function, t float64) (access, miss *trace.Series) {
	access = trace.NewSeries("access", p.cfg.TPCM, p.cfg.TPCM)
	miss = trace.NewSeries("miss", p.cfg.TPCM, p.cfg.TPCM)
	p.RunUntil(t, func(res StepResult) {
		access.Append(res.Samples[f.Index()].AccessNum)
		miss.Append(res.Samples[f.Index()].MissNum)
	})
	return access, miss
}

// lambdaSpec is a short Lambda-style invocation (2 s of work).
func lambdaSpec(t *testing.T) FunctionSpec {
	t.Helper()
	inv, err := workload.NewBuilder("thumbnailer", "THUMB").
		AccessRate(1.5e6).
		MissRatio(0.07).
		Noise(0.1).
		Runtime(2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return FunctionSpec{Name: "thumbnailer", Invocation: inv, ColdStart: 0.2, Concurrency: 4}
}

func TestFunctionSpecValidation(t *testing.T) {
	good := lambdaSpec(t)
	bad := []func(*FunctionSpec){
		func(f *FunctionSpec) { f.Name = "" },
		func(f *FunctionSpec) { f.Invocation.WorkSeconds = 0 },
		func(f *FunctionSpec) { f.Invocation.BaseAccessRate = 0 },
		func(f *FunctionSpec) { f.ColdStart = -1 },
		func(f *FunctionSpec) { f.Concurrency = 0 },
	}
	for i, mutate := range bad {
		f := good
		mutate(&f)
		if err := f.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	p, err := NewPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddAttacker(nil); err == nil {
		t.Error("nil attacker accepted")
	}
	badSpec := lambdaSpec(t)
	badSpec.Concurrency = 0
	if _, err := p.Deploy(badSpec); err == nil {
		t.Error("invalid function deployed")
	}
}

func TestInvocationChurn(t *testing.T) {
	p, _ := NewPlatform(DefaultConfig())
	f, err := p.Deploy(lambdaSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := runTrace(p, f, 60)
	// 4 slots, ~2.2s per invocation cycle, 60s: ~108 completions.
	if got := f.Completed(); got < 80 || got > 130 {
		t.Errorf("completions = %d, want ~108", got)
	}
	// The per-function counter stream is continuous despite churn.
	if acc.Len() != 6000 {
		t.Errorf("samples = %d, want 6000", acc.Len())
	}
	if acc.Window(10, 60).Min() <= 0 {
		t.Error("aggregate stream has dead samples despite concurrency 4")
	}
}

// TestStepSamplesInDeployOrder: each step carries one sample per function,
// in its Index slot, for the interval ending at the step's time; the
// function running more instances fills its slot with more accesses.
func TestStepSamplesInDeployOrder(t *testing.T) {
	p, _ := NewPlatform(DefaultConfig())
	var fns []*Function
	for _, name := range []string{"a", "b", "c"} {
		spec := lambdaSpec(t)
		spec.Name = name
		spec.Concurrency = len(fns) + 1
		f, err := p.Deploy(spec)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, f)
	}
	sums := make([]float64, len(fns))
	p.RunUntil(1, func(res StepResult) {
		if len(res.Samples) != len(fns) {
			t.Fatalf("t=%v: %d samples for %d functions", res.Time, len(res.Samples), len(fns))
		}
		for i, f := range fns {
			if f.Index() != i {
				t.Fatalf("%s has index %d, want %d", f.Name(), f.Index(), i)
			}
			s := res.Samples[f.Index()]
			if math.Abs(s.Time-res.Time) > 1e-9 {
				t.Fatalf("t=%v: %s slot %+v", res.Time, f.Name(), s)
			}
			sums[i] += s.AccessNum
		}
	})
	// Concurrency 1, 2, 3 in Deploy order.
	for i := 1; i < len(fns); i++ {
		if sums[i] <= sums[i-1] {
			t.Errorf("%s (concurrency %d) drew %v accesses, %s (concurrency %d) %v",
				fns[i].Name(), i+1, sums[i], fns[i-1].Name(), i, sums[i-1])
		}
	}
}

func TestAttackCutsThroughput(t *testing.T) {
	run := func(withAttack bool) int {
		p, _ := NewPlatform(DefaultConfig())
		f, _ := p.Deploy(lambdaSpec(t))
		if withAttack {
			atk, _ := attack.NewBusLock(attack.Always{}, 0.7)
			p.AddAttacker(atk)
		}
		p.RunUntil(60, nil)
		return f.Completed()
	}
	clean, attacked := run(false), run(true)
	// Duty-0.7 bus locking should cut invocation throughput roughly 3x.
	if attacked >= clean/2 {
		t.Errorf("throughput %d -> %d under attack: insufficient impact", clean, attacked)
	}
}

func TestCleansingInflatesFunctionMisses(t *testing.T) {
	p, _ := NewPlatform(DefaultConfig())
	f, _ := p.Deploy(lambdaSpec(t))
	atk, _ := attack.NewLLCCleansing(attack.Window{Start: 30, End: 60}, 0.6, 2e6)
	p.AddAttacker(atk)
	_, miss := runTrace(p, f, 60)
	before := miss.Window(5, 30).Mean()
	during := miss.Window(35, 60).Mean()
	if during < 2.5*before {
		t.Errorf("function MissNum %v -> %v: insufficient rise", before, during)
	}
}

func TestMeanSpeedReflectsAttack(t *testing.T) {
	p, _ := NewPlatform(DefaultConfig())
	f, _ := p.Deploy(lambdaSpec(t))
	atk, _ := attack.NewBusLock(attack.Window{Start: 30, End: 60}, 0.7)
	p.AddAttacker(atk)
	p.RunUntil(20, nil)
	if s := f.MeanSpeed(); s < 0.9 {
		t.Errorf("clean mean speed = %v", s)
	}
	p.RunUntil(50, nil)
	if s := f.MeanSpeed(); s > 0.5 {
		t.Errorf("attacked mean speed = %v", s)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() int {
		p, _ := NewPlatform(DefaultConfig())
		f, _ := p.Deploy(lambdaSpec(t))
		p.RunUntil(30, nil)
		return f.Completed()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed platforms diverged: %d vs %d", a, b)
	}
}

func TestInstanceTooShortToProfile(t *testing.T) {
	// The Section VIII point: a 2 s invocation yields only 200 samples —
	// exactly one W-sized MA window — so per-instance SDS/B profiling is
	// infeasible; the per-function aggregate (tested above) is the
	// workable observable.
	spec := lambdaSpec(t)
	samplesPerInstance := int(spec.Invocation.WorkSeconds / DefaultConfig().TPCM)
	const w = 200 // core.DefaultParams().W
	if samplesPerInstance > w {
		t.Fatalf("test premise broken: %d samples per instance (> W=%d)", samplesPerInstance, w)
	}
}
