package main

import (
	"testing"

	"memdos/internal/dnn"
	"memdos/internal/sim"
)

// DNN hot-path benchmarks for the regression gate: one full training
// step (forward, loss, backward, Adam) over the compact LSTM-FCN, and the
// compiled batch scorer. Both run on workspace arenas and must stay
// allocation-free in steady state — the gate's alloc comparison watches
// that as much as the timing.

// benchDNNSetup builds a warmed stepper over one synthetic batch.
func benchDNNSetup(b *testing.B) (*dnn.Stepper, *dnn.Tensor, []int) {
	b.Helper()
	rng := sim.NewRNG(77)
	m, err := dnn.NewLSTMFCN(dnn.CompactLSTMFCNConfig(2, 3), sim.NewRNG(78))
	if err != nil {
		b.Fatal(err)
	}
	const batch, window = 32, 50
	x := dnn.NewTensor(batch, window, 2)
	for i := range x.Data {
		x.Data[i] = rng.Normal(0, 1)
	}
	y := make([]int, batch)
	for i := range y {
		y[i] = i % 3
	}
	s := dnn.NewStepper(m, dnn.NewAdam(1e-3))
	s.Step(x, y) // warm-up: builds the lazy LSTM branch and every arena
	return s, x, y
}

func benchDNNTrainStep(b *testing.B) {
	s, x, y := benchDNNSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(x, y)
	}
}

// dnn/infer-batched is the production inference service's hot path: the
// compiled batch scorer over 256 windows, at 0 allocs/op steady state.

const scoreBenchBatch, scoreBenchWindow = 256, 50

func benchDNNInferBatched(b *testing.B) {
	rng := sim.NewRNG(79)
	c, err := dnn.NewCascade(2, dnn.CompactLSTMFCNConfig, sim.NewRNG(80))
	if err != nil {
		b.Fatal(err)
	}
	windows := make([][][]float64, scoreBenchBatch)
	flat := make([]float64, 0, scoreBenchBatch*scoreBenchWindow*2)
	for i := range windows {
		win := make([][]float64, scoreBenchWindow)
		for t := range win {
			acc := 100 + rng.Normal(0, 8)
			miss := 10 + rng.Normal(0, 1)
			win[t] = []float64{acc, miss}
			flat = append(flat, acc, miss)
		}
		windows[i] = win
	}
	if c.Norm, err = dnn.FitChannelNorm(windows); err != nil {
		b.Fatal(err)
	}
	s, err := c.Scorer(scoreBenchWindow, dnn.ScorerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	apps := make([]int, scoreBenchBatch)
	attacks := make([]int, scoreBenchBatch)
	s.ScoreFlat(scoreBenchBatch, flat, apps, attacks) // warm the arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScoreFlat(scoreBenchBatch, flat, apps, attacks)
	}
	b.ReportMetric(scoreBenchBatch*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
}
