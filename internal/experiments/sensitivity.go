package experiments

import (
	"fmt"
	"math"

	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/par"
	"memdos/internal/stats"
	"memdos/internal/workload"
)

// SweepPoint is one sensitivity-curve sample: the parameter value and the
// resulting accuracy and delay (aggregated over seeds).
type SweepPoint struct {
	Value       float64
	Recall      float64
	Specificity float64
	Delay       float64
}

// sweepCell is one Scenario 1 bus-locking run of the app with the given
// parameters and factory under one seed.
func sweepCell(app string, params core.Params, factory DetectorFactory, seed uint64) (Accuracy, error) {
	res, err := Run(DefaultRunSpec(app, BusLock, seed), params, factory)
	if err != nil {
		return Accuracy{}, err
	}
	return Score(res, EvalGrace), nil
}

// mergeSweepPoint aggregates the per-seed accuracies of one sweep point,
// in seed order, exactly as the serial loop did.
func mergeSweepPoint(accs []Accuracy) SweepPoint {
	rec, spc, dly := finite(accs)
	return SweepPoint{
		Recall:      stats.Mean(rec),
		Specificity: stats.Mean(spc),
		Delay:       stats.Mean(dly),
	}
}

// sweepRun executes Scenario 1 bus-locking runs of the app with the given
// parameters and factory, fanning the seeds across the Runner, and
// aggregates.
func sweepRun(app string, params core.Params, factory DetectorFactory, seeds []uint64) (SweepPoint, error) {
	accs, err := par.MapCells(par.DefaultRunner(), len(seeds), func(i int) (Accuracy, error) {
		return sweepCell(app, params, factory, seeds[i])
	})
	if err != nil {
		return SweepPoint{}, err
	}
	return mergeSweepPoint(accs), nil
}

// sweepParams runs one sweep over parameter variants for a detector bound
// to the varied params. The whole (variant x seed) grid is flattened into
// one parallel fan-out so a sweep saturates the pool even with one seed
// per point.
func sweepParams(app string, variants []core.Params, values []float64, factory func(core.Params) DetectorFactory, seeds []uint64) ([]SweepPoint, error) {
	if len(variants) != len(values) {
		return nil, fmt.Errorf("experiments: %d variants vs %d values", len(variants), len(values))
	}
	for _, p := range variants {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	accs, err := par.MapCells(par.DefaultRunner(), len(variants)*len(seeds), func(i int) (Accuracy, error) {
		p := variants[i/len(seeds)]
		return sweepCell(app, p, factory(p), seeds[i%len(seeds)])
	})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(variants))
	for vi := range variants {
		pt := mergeSweepPoint(accs[vi*len(seeds) : (vi+1)*len(seeds)])
		pt.Value = values[vi]
		out[vi] = pt
	}
	return out, nil
}

// sdsFactoryWith builds an SDS factory whose detector uses exactly the
// varied parameters. Run re-profiles per parameter set (the profile cache
// keys on the smoothing parameters), so env.Profile already matches p.
func sdsFactoryWith(p core.Params) DetectorFactory {
	return func(env *Env) (core.Detector, error) {
		return core.NewSDS(env.Profile, p)
	}
}

// Fig17AlphaSweep varies the EWMA smoothing factor alpha (paper range
// [0, 1]; alpha = 1 degenerates to the MA series).
func Fig17AlphaSweep(app string, alphas []float64, seeds []uint64) ([]SweepPoint, error) {
	var variants []core.Params
	for _, a := range alphas {
		p := core.DefaultParams()
		p.Alpha = a
		variants = append(variants, p)
	}
	return sweepParams(app, variants, alphas, sdsFactoryWith, seeds)
}

// Fig18KSweep varies the boundary factor k, re-deriving H_C for the 99.9%
// Chebyshev confidence as the paper does.
func Fig18KSweep(app string, ks []float64, seeds []uint64) ([]SweepPoint, error) {
	var variants []core.Params
	for _, k := range ks {
		p := core.DefaultParams()
		p.K = k
		h, err := stats.ChebyshevH(k, 0.999)
		if err != nil {
			return nil, err
		}
		p.HC = h
		variants = append(variants, p)
	}
	return sweepParams(app, variants, ks, sdsFactoryWith, seeds)
}

// Fig19WSweep varies the MA window size W for SDS.
func Fig19WSweep(app string, ws []int, seeds []uint64) ([]SweepPoint, error) {
	var variants []core.Params
	var values []float64
	for _, w := range ws {
		p := core.DefaultParams()
		p.W = w
		if p.DW > w {
			p.DW = w
		}
		variants = append(variants, p)
		values = append(values, float64(w))
	}
	return sweepParams(app, variants, values, sdsFactoryWith, seeds)
}

// Fig21DWSweep varies the MA sliding step for SDS.
func Fig21DWSweep(app string, dws []int, seeds []uint64) ([]SweepPoint, error) {
	var variants []core.Params
	var values []float64
	for _, dw := range dws {
		p := core.DefaultParams()
		p.DW = dw
		variants = append(variants, p)
		values = append(values, float64(dw))
	}
	return sweepParams(app, variants, values, sdsFactoryWith, seeds)
}

// Fig23WPSweep varies SDS/P's analysis window W_P (in multiples of the
// profiled period) on a periodic app.
func Fig23WPSweep(app string, factors []int, seeds []uint64) ([]SweepPoint, error) {
	var variants []core.Params
	var values []float64
	for _, f := range factors {
		p := core.DefaultParams()
		p.WPFactor = f
		variants = append(variants, p)
		values = append(values, float64(f))
	}
	factory := func(p core.Params) DetectorFactory {
		return func(env *Env) (core.Detector, error) {
			return core.NewSDSP(env.Profile, p)
		}
	}
	return sweepParams(app, variants, values, factory, seeds)
}

// Fig24DWPSweep varies SDS/P's evaluation stride DW_P.
func Fig24DWPSweep(app string, dwps []int, seeds []uint64) ([]SweepPoint, error) {
	var variants []core.Params
	var values []float64
	for _, d := range dwps {
		p := core.DefaultParams()
		p.DWP = d
		variants = append(variants, p)
		values = append(values, float64(d))
	}
	factory := func(p core.Params) DetectorFactory {
		return func(env *Env) (core.Detector, error) {
			return core.NewSDSP(env.Profile, p)
		}
	}
	return sweepParams(app, variants, values, factory, seeds)
}

// dnnSweepApps are the applications used to train the reduced sweep
// cascades (Figs. 20/22 present k-means results).
var dnnSweepApps = []string{"KM", "BA", "TS"}

// dnnCascadeForW trains a reduced cascade with window size w. Sweep
// cascades are throwaway models retrained per sweep point, so they use
// data-parallel minibatch gradients (a fixed shard count keeps the result
// deterministic and core-count-independent); the shared cascade keeps the
// serial trajectory the accuracy experiments were tuned against.
func dnnCascadeForW(w int) (*dnn.Cascade, error) {
	spec := DefaultTrainingSpec()
	spec.Apps = dnnSweepApps
	spec.Window = w
	spec.Stride = w
	spec.RunSeconds = 90
	spec.Train.Epochs = 8
	spec.Train.GradShards = 4
	return TrainCascade(spec)
}

// Fig20WSweepDNN varies the window size for the DNN detector, retraining
// the (reduced) cascade per window length.
func Fig20WSweepDNN(ws []int, seeds []uint64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, w := range ws {
		cascade, err := dnnCascadeForW(w)
		if err != nil {
			return nil, err
		}
		p := core.DefaultParams()
		p.W = w
		if p.DW > w {
			p.DW = w
		}
		factory := func(env *Env) (core.Detector, error) {
			return core.NewDNNDetector(cascade, p)
		}
		pt, err := sweepRun("KM", p, factory, seeds)
		if err != nil {
			return nil, err
		}
		pt.Value = float64(w)
		out = append(out, pt)
	}
	return out, nil
}

// Fig22DWSweepDNN varies the decision stride for the DNN detector; the
// model is unchanged (the stride only affects evaluation cadence).
func Fig22DWSweepDNN(dws []int, seeds []uint64) ([]SweepPoint, error) {
	cascade, err := dnnCascadeForW(200)
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for _, dw := range dws {
		p := core.DefaultParams()
		p.DW = dw
		factory := func(env *Env) (core.Detector, error) {
			return core.NewDNNDetector(cascade, p)
		}
		pt, err := sweepRun("KM", p, factory, seeds)
		if err != nil {
			return nil, err
		}
		pt.Value = float64(dw)
		out = append(out, pt)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md Section 5).
// ---------------------------------------------------------------------------

// AblationRawThreshold compares the naive raw-threshold detector of
// Section IV-A with SDS on the same runs. The naive detector fails both
// ways: with the paper's example threshold (50%) it only fires on the
// single transition sample, so it cannot *hold* an alarm through an attack
// (near-zero recall); with a threshold low enough to react to the attacked
// level, raw sample noise floods it with false positives. SDS's MA+EWMA
// smoothing plus profiled bounds avoid both failure modes.
// The returned map has keys "naive-coarse" (threshold 0.5),
// "naive-fine" (threshold 0.15) and "SDS".
func AblationRawThreshold(app string, seeds []uint64) (map[string]Accuracy, error) {
	params := core.DefaultParams()
	factories := map[string]DetectorFactory{
		"naive-coarse": func(env *Env) (core.Detector, error) { return core.NewRawThreshold(0.5) },
		"naive-fine":   func(env *Env) (core.Detector, error) { return core.NewRawThreshold(0.15) },
		"SDS":          SDSFactory,
	}
	names := []string{"naive-coarse", "naive-fine", "SDS"}
	accs, err := par.MapCells(par.DefaultRunner(), len(names)*len(seeds), func(i int) (Accuracy, error) {
		name := names[i/len(seeds)]
		seed := seeds[i%len(seeds)]
		res, err := Run(DefaultRunSpec(app, BusLock, seed), params, factories[name])
		if err != nil {
			return Accuracy{}, err
		}
		return Score(res, EvalGrace), nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]Accuracy{}
	for ni, name := range names {
		var rec, spc []float64
		for si := range seeds {
			a := accs[ni*len(seeds)+si]
			rec = append(rec, a.Recall)
			spc = append(spc, a.Specificity)
		}
		out[name] = Accuracy{Recall: stats.Mean(rec), Specificity: stats.Mean(spc)}
	}
	return out, nil
}

// PeriodEstimatorAblation compares DFT-only, ACF-only and DFT-ACF period
// estimates against the known ground-truth period of a periodic app's MA
// series; it returns the mean absolute relative error of each estimator.
func PeriodEstimatorAblation(app string, seeds []uint64) (dftErr, acfErr, dftacfErr float64, err error) {
	spec, err2 := appPeriodTruth(app)
	if err2 != nil {
		return 0, 0, 0, err2
	}
	params := core.DefaultParams()
	type cell struct{ dft, acf, both float64 }
	cells, err2 := par.MapCells(par.DefaultRunner(), len(seeds), func(i int) (cell, error) {
		run := DefaultRunSpec(app, NoAttack, seeds[i])
		run.Duration = 120
		res, err := Run(run, params, nil)
		if err != nil {
			return cell{}, err
		}
		ma := stats.MA(res.Access.Values, params.W, params.DW)
		truth := spec
		relErr := func(p float64) float64 {
			if math.IsNaN(p) {
				return 1
			}
			return math.Abs(p-truth) / truth
		}
		return cell{
			dft:  relErr(periodOrNaN(periodDFTOnly(ma))),
			acf:  relErr(periodOrNaN(periodACFOnly(ma))),
			both: relErr(periodOrNaN(periodDFTACF(ma))),
		}, nil
	})
	if err2 != nil {
		return 0, 0, 0, err2
	}
	var eDFT, eACF, eBoth []float64
	for _, c := range cells {
		eDFT = append(eDFT, c.dft)
		eACF = append(eACF, c.acf)
		eBoth = append(eBoth, c.both)
	}
	return stats.Mean(eDFT), stats.Mean(eACF), stats.Mean(eBoth), nil
}

// appPeriodTruth returns the app's nominal period in MA samples.
func appPeriodTruth(app string) (float64, error) {
	s, err := workload.ByAbbrev(app)
	if err != nil {
		return 0, err
	}
	if !s.Periodic {
		return 0, fmt.Errorf("experiments: %s is not periodic", app)
	}
	params := core.DefaultParams()
	return s.PeriodSec / (float64(params.DW) * params.TPCM), nil
}

// MicrosimCalibration cross-checks the fast counter model against the
// set-associative cache microsimulation: it runs the cleansing attack in
// both and returns the victim miss-ratio inflation factor observed in each.
func MicrosimCalibration() (microFactor, fastFactor float64, err error) {
	microFactor, err = microsimCleansingFactor()
	if err != nil {
		return 0, 0, err
	}
	// Fast counter model: k-means with cleansing in the second half.
	spec := RunSpec{App: "KM", Mode: Cleansing, Duration: 120, Seed: 3, Service: true, AttackStart: 60}
	srv, victim, _, err := buildServer(spec)
	if err != nil {
		return 0, 0, err
	}
	srv.RunUntil(120, nil)
	c := srv.Counter(victim.ID())
	access, miss := c.AccessSeries(), c.MissSeries()
	ratio := func(t0, t1 float64) float64 {
		acc := access.Window(t0, t1).Mean()
		if stats.ApproxEqual(acc, 0, 1e-12) {
			return 0
		}
		return miss.Window(t0, t1).Mean() / acc
	}
	before := ratio(10, 60)
	during := ratio(70, 120)
	if stats.ApproxEqual(before, 0, 1e-12) {
		return 0, 0, fmt.Errorf("experiments: zero baseline miss ratio")
	}
	fastFactor = during / before
	return microFactor, fastFactor, nil
}

// periodOrNaN converts (estimate, ok) period results.
func periodOrNaN(p float64, ok bool) float64 {
	if !ok {
		return math.NaN()
	}
	return p
}
