package experiments

import (
	"fmt"
	"sync"

	"memdos/internal/attack"
	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/par"
	"memdos/internal/sim"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// TrainingSpec controls DNN training-data generation (Section V-B: the
// paper collects windows from every application with and without attack;
// its sample count is 20137 and it trains 3000 epochs on GPU — see
// DESIGN.md for the CPU-scale substitution).
type TrainingSpec struct {
	// Apps to include (Table II abbreviations).
	Apps []string
	// RunSeconds of counter stream per (app, attack-state) pair.
	RunSeconds float64
	// Window and Stride slice the stream into labelled windows.
	Window, Stride int
	// Seed drives the generation runs.
	Seed uint64
	// Arch picks the per-stage architecture.
	Arch func(channels, classes int) dnn.LSTMFCNConfig
	// Train is the optimizer configuration.
	Train dnn.TrainConfig
}

// DefaultTrainingSpec returns the configuration used by the shared cascade:
// all ten applications, compact architecture, CPU-scale epochs.
func DefaultTrainingSpec() TrainingSpec {
	cfg := dnn.DefaultTrainConfig()
	cfg.Epochs = 12
	cfg.BatchSize = 32
	return TrainingSpec{
		Apps:       workload.Abbrevs(),
		RunSeconds: 120,
		Window:     200,
		Stride:     200,
		Seed:       1,
		Arch:       dnn.CompactLSTMFCNConfig,
		Train:      cfg,
	}
}

// AttackClassOf maps an AttackMode to the cascade's class label.
func AttackClassOf(mode AttackMode) int {
	switch mode {
	case BusLock:
		return dnn.ClassBusLock
	case Cleansing:
		return dnn.ClassCleansing
	default:
		return dnn.ClassNoAttack
	}
}

// collectWindows runs one (app, mode) pair with the attack active for the
// whole run and slices the victim's counter stream into windows. It
// refuses a mode the cascade has no class for: AttackClassOf would label
// its windows no-attack.
func collectWindows(app string, mode AttackMode, dur float64, seed uint64, w, stride int) ([][][]float64, error) {
	if mode != NoAttack && AttackClassOf(mode) == dnn.ClassNoAttack {
		return nil, fmt.Errorf("experiments: the cascade has no class for the %v attack", mode)
	}
	cfg := vmm.DefaultConfig()
	cfg.Seed = seed
	srv, err := vmm.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByAbbrev(app)
	if err != nil {
		return nil, err
	}
	victim, err := srv.AddApp("victim", spec.Service())
	if err != nil {
		return nil, err
	}
	if mode != NoAttack {
		atk, err := newAttacker(mode, attack.Always{})
		if err != nil {
			return nil, err
		}
		if _, err := srv.AddAttacker("attacker", atk); err != nil {
			return nil, err
		}
	}
	rec := newVictimTrace(srv, victim)
	srv.RunUntil(dur, rec.record)
	acc, miss := rec.access.Values, rec.miss.Values

	var out [][][]float64
	for lo := 0; lo+w <= len(acc); lo += stride {
		win := make([][]float64, w)
		for t := 0; t < w; t++ {
			win[t] = []float64{acc[lo+t], miss[lo+t]}
		}
		out = append(out, win)
	}
	return out, nil
}

// GenerateCascadeSamples produces the labelled training corpus for the
// cascade across all apps and attack states. Each (app, attack-state)
// collection run is one parallel cell; the corpus is concatenated in cell
// order, so the sample sequence is identical to a serial generation pass.
func GenerateCascadeSamples(spec TrainingSpec) ([]dnn.CascadeSample, error) {
	if len(spec.Apps) < 2 {
		return nil, fmt.Errorf("experiments: training needs at least 2 apps")
	}
	modes := []AttackMode{NoAttack, BusLock, Cleansing}
	chunks, err := par.MapCells(par.DefaultRunner(), len(spec.Apps)*len(modes), func(i int) ([]dnn.CascadeSample, error) {
		appIdx := i / len(modes)
		mode := modes[i%len(modes)]
		wins, err := collectWindows(spec.Apps[appIdx], mode, spec.RunSeconds,
			spec.Seed+uint64(appIdx)*31+uint64(mode), spec.Window, spec.Stride)
		if err != nil {
			return nil, err
		}
		out := make([]dnn.CascadeSample, 0, len(wins))
		for _, w := range wins {
			out = append(out, dnn.CascadeSample{
				Window:      w,
				AppLabel:    appIdx,
				AttackLabel: AttackClassOf(mode),
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var samples []dnn.CascadeSample
	for _, chunk := range chunks {
		samples = append(samples, chunk...)
	}
	return samples, nil
}

// TrainCascade generates the corpus and trains a cascade per the spec.
func TrainCascade(spec TrainingSpec) (*dnn.Cascade, error) {
	samples, err := GenerateCascadeSamples(spec)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(spec.Seed + 7)
	c, err := dnn.NewCascade(len(spec.Apps), spec.Arch, rng)
	if err != nil {
		return nil, err
	}
	if _, _, err := dnn.TrainCascade(c, samples, spec.Train); err != nil {
		return nil, err
	}
	return c, nil
}

var (
	sharedOnce    sync.Once
	sharedCascade *dnn.Cascade
	sharedErr     error
)

// SharedCascade trains (once per process) the cascade used by every DNN
// experiment. Training is deterministic, so all callers observe the same
// model.
func SharedCascade() (*dnn.Cascade, error) {
	sharedOnce.Do(func() {
		sharedCascade, sharedErr = TrainCascade(DefaultTrainingSpec())
	})
	return sharedCascade, sharedErr
}

// HeldOutWindows generates fresh windows for the (app, mode) pair from a
// seed disjoint from the training runs, for held-out evaluation.
func HeldOutWindows(app string, mode AttackMode, spec TrainingSpec) ([][][]float64, error) {
	return collectWindows(app, mode, spec.RunSeconds/2,
		spec.Seed+0x5eed0000+uint64(mode), spec.Window, spec.Stride)
}

// DNNFactory builds the DNN detector around the shared cascade. The
// detector compiles its own scorer and never writes the cascade, so
// concurrent runs share the one model.
func DNNFactory(env *Env) (core.Detector, error) {
	c, err := SharedCascade()
	if err != nil {
		return nil, err
	}
	return core.NewDNNDetector(c, env.Params)
}
