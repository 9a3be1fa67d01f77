package experiments

import (
	"fmt"

	"memdos/internal/attack"
	"memdos/internal/container"
	"memdos/internal/core"
	"memdos/internal/metrics"
	"memdos/internal/workload"
)

// ContainerResult is the outcome of the Section VIII container study.
type ContainerResult struct {
	// CleanThroughput / AttackedThroughput are completed invocations per
	// second before and during the attack.
	CleanThroughput, AttackedThroughput float64
	// Accuracy scores the SDS/U detector on the per-function aggregate
	// counter stream.
	Accuracy Accuracy
	// SamplesPerInstance documents why per-instance profiling is
	// infeasible (compare with Params.W = 200).
	SamplesPerInstance int
}

// ContainerStudy runs the paper's future-work scenario: a serverless-style
// function (short-lived instances, aggressive churn) under a memory DoS
// attack on a container host. Per-instance profiling is impossible — an
// instance's whole life yields about one MA window of samples — so
// detection runs on the per-function aggregate stream with the
// profile-free SDS/U scheme.
func ContainerStudy(mode AttackMode, dur float64, seed uint64) (*ContainerResult, error) {
	if mode == NoAttack {
		return nil, fmt.Errorf("experiments: container study needs an attack mode")
	}
	if dur < 120 {
		return nil, fmt.Errorf("experiments: container study needs >= 120s, got %v", dur)
	}
	cfg := container.DefaultConfig()
	cfg.Seed = seed
	plat, err := container.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	inv := workload.Spec{
		Name: "image thumbnailer", Abbrev: "THUMB",
		BaseAccessRate: 1.5e6, BaseMissRatio: 0.07, NoiseFrac: 0.1, WorkSeconds: 2,
	}
	fn, err := plat.Deploy(container.FunctionSpec{
		Name: "thumbnailer", Invocation: inv, ColdStart: 0.2, Concurrency: 4,
	})
	if err != nil {
		return nil, err
	}
	attackStart := dur / 2
	atk, err := newAttacker(mode, attack.Window{Start: attackStart, End: dur})
	if err != nil {
		return nil, err
	}
	if err := plat.AddAttacker(atk); err != nil {
		return nil, err
	}

	params := core.DefaultParams()
	det, err := core.NewSDSU(fn.MeanSpeed, params)
	if err != nil {
		return nil, err
	}

	var decisions []core.Decision
	completedAtAttack := 0
	plat.RunUntil(dur, func(step container.StepResult) {
		if step.Time <= attackStart {
			completedAtAttack = fn.Completed()
		}
		decisions = append(decisions, det.Push(step.Samples[fn.Index()])...)
	})

	truth := []metrics.Interval{{Start: attackStart, End: dur}}
	conf := metrics.Evaluate(decisions, truth, EvalGrace)
	res := &ContainerResult{
		CleanThroughput:    float64(completedAtAttack) / attackStart,
		AttackedThroughput: float64(fn.Completed()-completedAtAttack) / (dur - attackStart),
		Accuracy: Accuracy{
			Recall:      conf.Recall(),
			Specificity: conf.Specificity(),
			MeanDelay:   metrics.MeanDelay(metrics.DetectionDelay(decisions, truth)),
		},
		SamplesPerInstance: int(inv.WorkSeconds / cfg.TPCM),
	}
	return res, nil
}
