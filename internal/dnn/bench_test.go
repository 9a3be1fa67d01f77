package dnn

import (
	"testing"

	"memdos/internal/sim"
)

// Steady-state benchmarks for the training stack. Every layer owns
// workspace arenas, so after one warm-up step the forward/backward/update
// cycle runs without allocating; the benchmarks report allocs to keep
// that property visible, and TestTrainStepZeroAllocs pins it exactly.

// benchStepper builds a compact model plus a ready-to-run training step
// on one synthetic batch, warmed so every arena exists.
func benchStepper(tb testing.TB, batch, w int) (*Stepper, *Tensor, []int) {
	tb.Helper()
	rng := sim.NewRNG(77)
	m, err := NewLSTMFCN(CompactLSTMFCNConfig(2, 3), sim.NewRNG(78))
	if err != nil {
		tb.Fatal(err)
	}
	x := NewTensor(batch, w, 2)
	for i := range x.Data {
		x.Data[i] = rng.Normal(0, 1)
	}
	y := make([]int, batch)
	for i := range y {
		y[i] = i % 3
	}
	s := NewStepper(m, NewAdam(1e-3))
	s.Step(x, y) // warm-up: builds the lazy LSTM and every workspace
	return s, x, y
}

func BenchmarkTrainStep(b *testing.B) {
	s, x, y := benchStepper(b, 32, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(x, y)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := sim.NewRNG(80)
	l := NewLSTM(32, 32, sim.NewRNG(81))
	x := NewTensor(8, 20, 32)
	for i := range x.Data {
		x.Data[i] = rng.Normal(0, 1)
	}
	h := l.Forward(x, true)
	g := h.Clone()
	l.Backward(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
		l.Backward(g)
	}
}

func BenchmarkConv1DForwardBackward(b *testing.B) {
	rng := sim.NewRNG(82)
	c := NewConv1D(16, 32, 5, sim.NewRNG(83))
	x := NewTensor(8, 100, 16)
	for i := range x.Data {
		x.Data[i] = rng.Normal(0, 1)
	}
	y := c.Forward(x, true)
	g := y.Clone()
	c.Backward(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x, true)
		c.Backward(g)
	}
}

// TestTrainStepZeroAllocs pins the arena contract: a steady-state
// training step — forward, loss, backward, Adam — performs zero heap
// allocations once the warm-up step has built every workspace.
func TestTrainStepZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is slow under -short")
	}
	s, x, y := benchStepper(t, 16, 30)
	s.Step(x, y) // second warm-up: Adam moment vectors exist after step 1
	if avg := testing.AllocsPerRun(10, func() { s.Step(x, y) }); avg != 0 {
		t.Errorf("steady-state training step allocates %.1f times/op, want 0", avg)
	}
}
