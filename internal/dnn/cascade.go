package dnn

import (
	"fmt"
	"math"

	"memdos/internal/par"
	"memdos/internal/sim"
)

// Attack-class labels produced by the cascade's second stage.
const (
	ClassNoAttack = iota
	ClassBusLock
	ClassCleansing
	NumAttackClasses
)

// ChannelNorm standardizes counter windows channel-wise in log space:
// x' = (log1p(x) - Mean[c]) / Std[c]. Log-scaling keeps level information
// (the attacks' signature) while taming the counters' dynamic range.
type ChannelNorm struct {
	Mean []float64
	Std  []float64
}

// FitChannelNorm computes normalization statistics over a dataset of raw
// windows.
func FitChannelNorm(windows [][][]float64) (ChannelNorm, error) {
	if len(windows) == 0 || len(windows[0]) == 0 {
		return ChannelNorm{}, fmt.Errorf("dnn: cannot fit norm on empty data")
	}
	c := len(windows[0][0])
	n := ChannelNorm{Mean: make([]float64, c), Std: make([]float64, c)}
	count := 0
	for _, w := range windows {
		for _, row := range w {
			for i := 0; i < c; i++ {
				n.Mean[i] += math.Log1p(row[i])
			}
			count++
		}
	}
	for i := range n.Mean {
		n.Mean[i] /= float64(count)
	}
	for _, w := range windows {
		for _, row := range w {
			for i := 0; i < c; i++ {
				d := math.Log1p(row[i]) - n.Mean[i]
				n.Std[i] += d * d
			}
		}
	}
	for i := range n.Std {
		n.Std[i] = math.Sqrt(n.Std[i] / float64(count))
		if n.Std[i] < 1e-9 {
			n.Std[i] = 1
		}
	}
	return n, nil
}

// Apply returns the normalized copy of a raw window.
func (n ChannelNorm) Apply(window [][]float64) [][]float64 {
	out := make([][]float64, len(window))
	for t, row := range window {
		nr := make([]float64, len(row))
		for c, v := range row {
			nr[c] = (math.Log1p(v) - n.Mean[c]) / n.Std[c]
		}
		out[t] = nr
	}
	return out
}

// Cascade is the paper's Fig. 10 architecture: the first LSTM-FCN
// classifies the application from a normalized counter window; its output
// conditions the second LSTM-FCN, which classifies the attack state
// (none / bus locking / LLC cleansing). Conditioning appends the
// application one-hot as constant channels, shrinking the second stage's
// search space as the paper describes.
//
// A Cascade is weights only: inference runs through a BatchScorer compiled
// from it (Scorer), which owns every buffer scoring writes. A trained or
// loaded cascade is therefore safe to share across goroutines, each
// compiling its own scorer; compiling writes only to build a never-run
// model's lazy LSTM branch. (ClassifyGraph, the test reference, runs the
// training graph and is not safe to share.)
type Cascade struct {
	NumApps int
	Norm    ChannelNorm

	App    *LSTMFCN
	Attack *LSTMFCN
}

// NewCascade builds an untrained cascade. arch chooses the per-stage
// architecture (PaperLSTMFCNConfig or CompactLSTMFCNConfig).
func NewCascade(numApps int, arch func(channels, classes int) LSTMFCNConfig, rng *sim.RNG) (*Cascade, error) {
	if numApps <= 1 {
		return nil, fmt.Errorf("dnn: cascade needs at least 2 applications, got %d", numApps)
	}
	app, err := NewLSTMFCN(arch(2, numApps), rng.Split())
	if err != nil {
		return nil, err
	}
	atk, err := NewLSTMFCN(arch(2+numApps, NumAttackClasses), rng.Split())
	if err != nil {
		return nil, err
	}
	return &Cascade{NumApps: numApps, App: app, Attack: atk}, nil
}

// conditionWindow appends the app one-hot to every row of a normalized
// window.
func conditionWindow(window [][]float64, app, numApps int) [][]float64 {
	out := make([][]float64, len(window))
	for t, row := range window {
		nr := make([]float64, len(row)+numApps)
		copy(nr, row)
		nr[len(row)+app] = 1
		out[t] = nr
	}
	return out
}

// ClassifyGraph runs the cascade through the float64 training graph. It
// exists only as the reference the compiled scorer is validated against
// (TestScorerMatchesGraph).
func (c *Cascade) ClassifyGraph(window [][]float64) (app, attackClass int) {
	norm := c.Norm.Apply(window)
	app = c.classifyOne(c.App, norm)
	attackClass = c.classifyOne(c.Attack, conditionWindow(norm, app, c.NumApps))
	return app, attackClass
}

// Scorer returns a compiled batch scorer for the given window length and
// options, building the LSTM branches if needed.
func (c *Cascade) Scorer(window int, opts ScorerOptions) (*BatchScorer, error) {
	return NewBatchScorer(c, window, opts)
}

// Window returns the window length the cascade's LSTM branch was built
// for, or 0 if it has never seen data.
func (c *Cascade) Window() int {
	if c.App == nil || c.App.lstm == nil {
		return 0
	}
	return c.App.lstm.In
}

func (c *Cascade) classifyOne(m *LSTMFCN, window [][]float64) int {
	x := NewTensor(1, len(window), len(window[0]))
	for t, row := range window {
		copy(x.Row(0, t), row)
	}
	return m.Classify(x)[0]
}

// CascadeSample is one training example for the cascade.
type CascadeSample struct {
	// Window is the raw (unnormalized) counter window, [W][2].
	Window [][]float64
	// AppLabel identifies the application (0..NumApps-1).
	AppLabel int
	// AttackLabel is the attack class (ClassNoAttack, ...).
	AttackLabel int
}

// TrainCascade fits the normalization, the application classifier, and the
// attack classifier (conditioned on ground-truth application labels, i.e.
// teacher forcing) on the samples. The two stages share no state while
// they train, so they run as two par cells: side by side on a pool of two
// or more workers, one after the other at one. Verbose lines reach the
// caller in that serial order: the application stage's as they come, the
// attack stage's once the application stage is done.
func TrainCascade(c *Cascade, samples []CascadeSample, cfg TrainConfig) (appRes, atkRes TrainResult, err error) {
	if len(samples) == 0 {
		return TrainResult{}, TrainResult{}, fmt.Errorf("dnn: no cascade training samples")
	}
	raw := make([][][]float64, len(samples))
	for i, s := range samples {
		raw[i] = s.Window
	}
	c.Norm, err = FitChannelNorm(raw)
	if err != nil {
		return TrainResult{}, TrainResult{}, err
	}

	appData := &Dataset{}
	atkData := &Dataset{}
	for _, s := range samples {
		norm := c.Norm.Apply(s.Window)
		appData.Add(norm, s.AppLabel)
		atkData.Add(conditionWindow(norm, s.AppLabel, c.NumApps), s.AttackLabel)
	}
	rng := sim.NewRNG(cfg.Seed + 101)
	appTrain, appVal := appData.Split(0.15, rng)
	atkTrain, atkVal := atkData.Split(0.15, rng)

	atkCfg := cfg
	var atkLines []string
	if cfg.Verbose != nil {
		atkCfg.Verbose = func(line string) { atkLines = append(atkLines, line) }
	}
	err = par.DefaultRunner().Do(2, func(i int) error {
		var err error
		if i == 0 {
			appRes, err = Train(c.App, appTrain, appVal, cfg)
		} else {
			atkRes, err = Train(c.Attack, atkTrain, atkVal, atkCfg)
		}
		return err
	})
	if err != nil {
		return appRes, atkRes, err
	}
	for _, line := range atkLines {
		cfg.Verbose(line)
	}
	return appRes, atkRes, nil
}
