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

// Sweep is one sensitivity figure of Figs. 17-24: a Table I parameter
// varied over Scenario 1 bus-locking runs, one detector, one app.
type Sweep struct {
	// Param is the name `memdos sweep -param` takes.
	Param string
	// Figure is the paper's figure number.
	Figure int
	// App fixes the application; empty lets the caller choose.
	App string
	// Values are the default points. An integer parameter takes a
	// value's integer part.
	Values []float64

	set     func(p *core.Params, v float64) error
	factory DetectorFactory
	// train builds the DNN cascade for a window length; set on the DNN
	// rows, whose factory is built over the trained cascades.
	train func(w int) (*dnn.Cascade, error)
}

// Sweeps are Figs. 17-24, in the order `memdos sweep` lists them.
var Sweeps = []Sweep{
	{Param: "alpha", Figure: 17, Values: []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}, set: setAlpha, factory: SDSFactory},
	{Param: "k", Figure: 18, Values: []float64{1.1, 1.125, 1.2, 1.5, 2.0}, set: setK, factory: SDSFactory},
	{Param: "w", Figure: 19, Values: []float64{100, 200, 400, 600, 1000}, set: setW, factory: SDSFactory},
	{Param: "dw", Figure: 21, Values: []float64{20, 50, 100, 200}, set: setDW, factory: SDSFactory},
	{Param: "wp", Figure: 23, App: "FN", Values: []float64{2, 3, 4, 6}, set: setWP, factory: SDSPFactory},
	{Param: "dwp", Figure: 24, App: "FN", Values: []float64{5, 10, 15, 25}, set: setDWP, factory: SDSPFactory},
	{Param: "dnnw", Figure: 20, App: "KM", Values: []float64{100, 200, 400}, set: setW, train: dnnCascadeForW},
	{Param: "dnndw", Figure: 22, App: "KM", Values: []float64{20, 50, 100, 200}, set: setDW, train: dnnCascadeForW},
}

// setAlpha sets the EWMA smoothing factor (paper range [0, 1]; alpha = 1
// degenerates to the MA series).
func setAlpha(p *core.Params, v float64) error {
	p.Alpha = v
	return nil
}

// setK sets the boundary factor k, re-deriving H_C for the 99.9%
// Chebyshev confidence as the paper does.
func setK(p *core.Params, v float64) error {
	h, err := stats.ChebyshevH(v, 0.999)
	p.K, p.HC = v, h
	return err
}

// setW sets the MA window W, clamping the step to it.
func setW(p *core.Params, v float64) error {
	p.W = int(v)
	p.DW = min(p.DW, p.W)
	return nil
}

// setDW sets the MA sliding step (for the DNN, the decision stride; its
// model is unchanged).
func setDW(p *core.Params, v float64) error {
	p.DW = int(v)
	return nil
}

// setWP sets SDS/P's analysis window W_P, in multiples of the profiled
// period.
func setWP(p *core.Params, v float64) error {
	p.WPFactor = int(v)
	return nil
}

// setDWP sets SDS/P's evaluation stride DW_P.
func setDWP(p *core.Params, v float64) error {
	p.DWP = int(v)
	return nil
}

// Run scores the sweep's detector at each value on Scenario 1 bus-locking
// runs of app, or of the row's App when it fixes one, aggregating each
// point over the seeds. Every (value, seed) pair is one cell of a single
// scored grid, so a sweep saturates the pool even with one seed per
// point. Run re-profiles per parameter set (the profile cache keys on the
// smoothing parameters), so each detector sees its own profile.
func (s Sweep) Run(app string, values []float64, seeds []uint64) ([]SweepPoint, error) {
	if s.App != "" {
		app = s.App
	}
	grid := make([]gridCell, len(values))
	for i, v := range values {
		p := core.DefaultParams()
		if err := s.set(&p, v); err != nil {
			return nil, err
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		grid[i] = gridCell{spec: DefaultRunSpec(app, BusLock, 0), params: p, factory: s.factory}
	}
	if s.train != nil {
		// One cascade per distinct window, trained serially before the
		// grid fans out; the cells share its weights and nothing they
		// write.
		cascades := map[int]*dnn.Cascade{}
		for _, c := range grid {
			if w := c.params.W; cascades[w] == nil {
				cascade, err := s.train(w)
				if err != nil {
					return nil, err
				}
				cascades[w] = cascade
			}
		}
		factory := func(env *Env) (core.Detector, error) {
			return core.NewDNNDetector(cascades[env.Params.W], env.Params)
		}
		for i := range grid {
			grid[i].factory = factory
		}
	}
	accs, err := scoreGrid(grid, seeds)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(values))
	for i, a := range accs {
		rec, spc, dly := finite(a)
		out[i] = SweepPoint{Value: values[i], Recall: stats.Mean(rec), Specificity: stats.Mean(spc), Delay: stats.Mean(dly)}
	}
	return out, nil
}

// dnnSweepApps are the applications used to train the reduced sweep
// cascades (Figs. 20/22 present k-means results).
var dnnSweepApps = []string{"KM", "BA", "TS"}

// dnnCascadeForW trains a reduced cascade with window size w. Sweep
// cascades are throwaway models retrained per window, so they use
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
	dets := []NamedFactory{
		{"naive-coarse", func(*Env) (core.Detector, error) { return core.NewRawThreshold(0.5) }},
		{"naive-fine", func(*Env) (core.Detector, error) { return core.NewRawThreshold(0.15) }},
		{"SDS", SDSFactory},
	}
	grid := make([]gridCell, len(dets))
	for i, d := range dets {
		grid[i] = gridCell{spec: DefaultRunSpec(app, BusLock, 0), params: core.DefaultParams(), factory: d.Factory}
	}
	accs, err := scoreGrid(grid, seeds)
	if err != nil {
		return nil, err
	}
	out := map[string]Accuracy{}
	for i, d := range dets {
		var rec, spc []float64
		for _, a := range accs[i] {
			rec = append(rec, a.Recall)
			spc = append(spc, a.Specificity)
		}
		out[d.Name] = Accuracy{Recall: stats.Mean(rec), Specificity: stats.Mean(spc)}
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
	rec := newVictimTrace(srv, victim)
	srv.RunUntil(spec.Duration, rec.record)
	access, miss := rec.access, rec.miss
	ratio := func(t0, t1 float64) float64 {
		acc := access.Window(t0, t1).Mean()
		if math.Abs(acc) <= 1e-12 {
			return 0
		}
		return miss.Window(t0, t1).Mean() / acc
	}
	before := ratio(10, 60)
	during := ratio(70, 120)
	if math.Abs(before) <= 1e-12 {
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
