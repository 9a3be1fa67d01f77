package dnn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"memdos/internal/sim"
)

func randTensor(rng *sim.RNG, b, t, c int) *Tensor {
	x := NewTensor(b, t, c)
	for i := range x.Data {
		x.Data[i] = rng.Normal(0, 1)
	}
	return x
}

// lossOf squares-and-sums an output tensor against fixed random targets —
// a simple differentiable scalar head for gradient checking.
func lossOf(y *Tensor, targets []float64) float64 {
	var l float64
	for i, v := range y.Data {
		d := v - targets[i]
		l += 0.5 * d * d
	}
	return l
}

func lossGrad(y *Tensor, targets []float64) *Tensor {
	g := NewTensor(y.B, y.T, y.C)
	for i, v := range y.Data {
		g.Data[i] = v - targets[i]
	}
	return g
}

// checkLayerGradients verifies both parameter and input gradients of a
// layer against central finite differences.
func checkLayerGradients(t *testing.T, name string, layer Layer, x *Tensor, rng *sim.RNG) {
	t.Helper()
	y := layer.Forward(x, true)
	targets := make([]float64, len(y.Data))
	for i := range targets {
		targets[i] = rng.Normal(0, 1)
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	dx := layer.Backward(lossGrad(y, targets))

	const eps = 1e-5
	const tol = 1e-3
	// Parameter gradients.
	for _, p := range layer.Params() {
		for i := 0; i < len(p.W); i += 1 + len(p.W)/17 { // sample indices
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := lossOf(layer.Forward(x, true), targets)
			p.W[i] = orig - eps
			lm := lossOf(layer.Forward(x, true), targets)
			p.W[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad[i]) > tol*(1+math.Abs(num)) {
				t.Errorf("%s: param %s[%d] grad = %v, numeric %v", name, p.Name, i, p.Grad[i], num)
			}
		}
	}
	// Input gradients.
	for i := 0; i < len(x.Data); i += 1 + len(x.Data)/17 {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(layer.Forward(x, true), targets)
		x.Data[i] = orig - eps
		lm := lossOf(layer.Forward(x, true), targets)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Errorf("%s: input grad[%d] = %v, numeric %v", name, i, dx.Data[i], num)
		}
	}
}

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	x.Set(1, 2, 3, 7)
	if x.At(1, 2, 3) != 7 {
		t.Error("Set/At broken")
	}
	x.Add(1, 2, 3, 1)
	if x.At(1, 2, 3) != 8 {
		t.Error("Add broken")
	}
	r := x.Row(1, 2)
	r[0] = 5
	if x.At(1, 2, 0) != 5 {
		t.Error("Row should alias")
	}
	c := x.Clone()
	c.Set(0, 0, 0, 9)
	if x.At(0, 0, 0) == 9 {
		t.Error("Clone should copy")
	}
}

func TestTensorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTensor(0, 1, 1)
}

func TestDenseGradients(t *testing.T) {
	rng := sim.NewRNG(1)
	checkLayerGradients(t, "dense", NewDense(5, 3, rng), randTensor(rng, 2, 1, 5), rng)
}

func TestConvGradients(t *testing.T) {
	rng := sim.NewRNG(2)
	checkLayerGradients(t, "conv", NewConv1D(3, 4, 5, rng), randTensor(rng, 2, 7, 3), rng)
}

func TestBatchNormGradients(t *testing.T) {
	rng := sim.NewRNG(3)
	checkLayerGradients(t, "batchnorm", NewBatchNorm(4), randTensor(rng, 3, 5, 4), rng)
}

func TestReLUGradients(t *testing.T) {
	rng := sim.NewRNG(4)
	checkLayerGradients(t, "relu", &ReLU{}, randTensor(rng, 2, 4, 3), rng)
}

func TestPoolGradients(t *testing.T) {
	rng := sim.NewRNG(5)
	checkLayerGradients(t, "pool", &GlobalAvgPool{}, randTensor(rng, 2, 6, 3), rng)
}

func TestLSTMGradients(t *testing.T) {
	rng := sim.NewRNG(6)
	checkLayerGradients(t, "lstm", NewLSTM(3, 4, rng), randTensor(rng, 2, 5, 3), rng)
}

func TestAttentionGradients(t *testing.T) {
	rng := sim.NewRNG(7)
	checkLayerGradients(t, "attention", NewAttention(4, rng), randTensor(rng, 2, 5, 4), rng)
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := sim.NewRNG(8)
	x := randTensor(rng, 2, 3, 5)
	// Two instances: a Transpose must not read from its own output
	// workspace, which feeding y back into the first one would do.
	fwd, back := &Transpose{}, &Transpose{}
	y := fwd.Forward(x, false)
	if y.T != 5 || y.C != 3 {
		t.Fatalf("transpose shape (%d,%d,%d)", y.B, y.T, y.C)
	}
	z := back.Forward(y, false)
	for i := range x.Data {
		if x.Data[i] != z.Data[i] {
			t.Fatal("double transpose not identity")
		}
	}
}

func TestDropout(t *testing.T) {
	rng := sim.NewRNG(9)
	d := NewDropout(0.5, rng)
	x := randTensor(rng, 4, 10, 8)
	// Inference: identity.
	y := d.Forward(x, false)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("inference dropout not identity")
		}
	}
	// Training: ~half zeroed, survivors scaled by 2.
	y = d.Forward(x, true)
	zeros := 0
	for i := range x.Data {
		switch y.Data[i] {
		case 0:
			zeros++
		case 2 * x.Data[i]:
		default:
			t.Fatalf("dropout output %v for input %v", y.Data[i], x.Data[i])
		}
	}
	frac := float64(zeros) / float64(len(x.Data))
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("dropout rate = %v, want ~0.5", frac)
	}
	// Backward uses the same mask.
	g := d.Backward(lossGrad(y, make([]float64, len(y.Data))))
	for i := range g.Data {
		if y.Data[i] == 0 && g.Data[i] != 0 {
			t.Fatal("gradient leaked through dropped unit")
		}
	}
}

func TestDropoutPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDropout(1.0, sim.NewRNG(1))
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := sim.NewRNG(10)
	bn := NewBatchNorm(2)
	x := NewTensor(8, 10, 2)
	for i := range x.Data {
		x.Data[i] = rng.Normal(50, 7)
	}
	y := bn.Forward(x, true)
	// With gamma=1, beta=0 the output should be ~zero-mean unit-variance.
	var mean, sq float64
	for i := 0; i < len(y.Data); i += 2 {
		mean += y.Data[i]
		sq += y.Data[i] * y.Data[i]
	}
	n := float64(len(y.Data) / 2)
	mean /= n
	if math.Abs(mean) > 1e-9 {
		t.Errorf("normalized mean = %v", mean)
	}
	if v := sq/n - mean*mean; math.Abs(v-1) > 0.01 {
		t.Errorf("normalized variance = %v", v)
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := sim.NewRNG(11)
	bn := NewBatchNorm(1)
	for i := 0; i < 200; i++ {
		x := NewTensor(16, 1, 1)
		for j := range x.Data {
			x.Data[j] = rng.Normal(10, 2)
		}
		bn.Forward(x, true)
	}
	x := NewTensor(1, 1, 1)
	x.Data[0] = 10 // at the running mean -> ~0 output
	y := bn.Forward(x, false)
	if math.Abs(y.Data[0]) > 0.2 {
		t.Errorf("inference at running mean = %v, want ~0", y.Data[0])
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := NewTensor(2, 1, 3)
	copy(logits.Row(0, 0), []float64{10, 0, 0})
	copy(logits.Row(1, 0), []float64{0, 0, 10})
	loss, probs, grad := SoftmaxCrossEntropy(logits, []int{0, 2})
	if loss > 0.01 {
		t.Errorf("confident correct loss = %v", loss)
	}
	if probs.At(0, 0, 0) < 0.99 || probs.At(1, 0, 2) < 0.99 {
		t.Errorf("probs = %v", probs.Data)
	}
	// Gradient signs: correct class negative, others positive.
	if grad.At(0, 0, 0) >= 0 || grad.At(0, 0, 1) < 0 {
		t.Errorf("gradient signs wrong: %v", grad.Row(0, 0))
	}
}

func TestSoftmaxCrossEntropyGradNumeric(t *testing.T) {
	rng := sim.NewRNG(12)
	logits := randTensor(rng, 3, 1, 4)
	labels := []int{1, 3, 0}
	_, _, grad := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		lm, _, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-5 {
			t.Fatalf("loss grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 || Argmax([]float64{9}) != 0 {
		t.Error("argmax broken")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 per coordinate.
	p := newParam("w", 4)
	opt := NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		for j := range p.W {
			p.Grad[j] = 2 * (p.W[j] - 3)
		}
		opt.Step([]*Param{p})
	}
	for j := range p.W {
		if math.Abs(p.W[j]-3) > 0.01 {
			t.Fatalf("Adam did not converge: w[%d] = %v", j, p.W[j])
		}
	}
}

func TestAdamReduceLR(t *testing.T) {
	opt := NewAdam(1e-3)
	if !opt.ReduceLR() {
		t.Error("first reduction should change LR")
	}
	want := 1e-3 / math.Cbrt(2)
	if math.Abs(opt.LR-want) > 1e-12 {
		t.Errorf("LR = %v, want %v", opt.LR, want)
	}
	for i := 0; i < 50; i++ {
		opt.ReduceLR()
	}
	if opt.LR != opt.MinLR {
		t.Errorf("LR floor = %v, want %v", opt.LR, opt.MinLR)
	}
	if opt.ReduceLR() {
		t.Error("reduction at floor should report false")
	}
	if opt.String() == "" {
		t.Error("empty String()")
	}
}

func TestLSTMFCNConfigValidation(t *testing.T) {
	if err := PaperLSTMFCNConfig(2, 10).Validate(); err != nil {
		t.Error(err)
	}
	bad := CompactLSTMFCNConfig(2, 3)
	bad.Kernels[0] = 4 // even
	if err := bad.Validate(); err == nil {
		t.Error("even kernel accepted")
	}
	bad2 := CompactLSTMFCNConfig(0, 3)
	if err := bad2.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
}

// synthDataset builds a trivially separable 3-class dataset: class 0 flat,
// class 1 collapsed level, class 2 inflated second channel — shaped like
// the detection problem (normal / bus lock / cleansing).
func synthDataset(rng *sim.RNG, n, w int) *Dataset {
	d := &Dataset{}
	for i := 0; i < n; i++ {
		label := i % 3
		win := make([][]float64, w)
		for t := range win {
			acc := 1.0 + rng.Normal(0, 0.1)
			miss := 0.1 + rng.Normal(0, 0.02)
			switch label {
			case 1:
				acc *= 0.3
				miss *= 0.3
			case 2:
				acc *= 0.7
				miss *= 5
			}
			win[t] = []float64{acc, miss}
		}
		d.Add(win, label)
	}
	return d
}

func TestLSTMFCNLearnsSeparableClasses(t *testing.T) {
	rng := sim.NewRNG(20)
	data := synthDataset(rng, 240, 20)
	train, val := data.Split(0.25, rng)
	m, err := NewLSTMFCN(LSTMFCNConfig{
		Channels: 2, Classes: 3,
		ConvFilters: [3]int{6, 8, 6},
		Kernels:     [3]int{9, 5, 3},
		LSTMCells:   8,
		Dropout:     0.1,
	}, sim.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	res, err := Train(m, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(m, val); acc < 0.9 {
		t.Errorf("validation accuracy = %v (result %+v)", acc, res)
	}
}

func TestTrainValidation(t *testing.T) {
	m, _ := NewLSTMFCN(CompactLSTMFCNConfig(2, 3), sim.NewRNG(1))
	if _, err := Train(m, &Dataset{}, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	d := synthDataset(sim.NewRNG(2), 6, 8)
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if _, err := Train(m, d, nil, bad); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestModelRejectsWindowMismatch(t *testing.T) {
	rng := sim.NewRNG(30)
	m, _ := NewLSTMFCN(CompactLSTMFCNConfig(2, 3), rng)
	m.Forward(randTensor(rng, 1, 10, 2), false)
	defer func() {
		if recover() == nil {
			t.Fatal("window length change should panic")
		}
	}()
	m.Forward(randTensor(rng, 1, 20, 2), false)
}

func TestDatasetSplit(t *testing.T) {
	d := synthDataset(sim.NewRNG(3), 100, 5)
	train, val := d.Split(0.2, sim.NewRNG(4))
	if train.Len()+val.Len() != 100 {
		t.Errorf("split sizes %d+%d", train.Len(), val.Len())
	}
	if val.Len() != 20 {
		t.Errorf("val size %d, want 20", val.Len())
	}
}

func TestTrainingDeterministic(t *testing.T) {
	mk := func() float64 {
		rng := sim.NewRNG(40)
		data := synthDataset(rng, 60, 10)
		m, _ := NewLSTMFCN(LSTMFCNConfig{
			Channels: 2, Classes: 3,
			ConvFilters: [3]int{4, 4, 4},
			Kernels:     [3]int{3, 3, 3},
			LSTMCells:   4,
			Dropout:     0.1,
		}, sim.NewRNG(41))
		cfg := DefaultTrainConfig()
		cfg.Epochs = 3
		res, _ := Train(m, data, nil, cfg)
		return res.FinalLoss
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("training not deterministic: %v vs %v", a, b)
	}
}

// TestTrainPinned pins two epochs of a tiny model bit for bit: the
// TrainResult, every verbose line and a digest of every trained weight.
// The ragged last batch (45 windows in batches of 32) and a one-epoch
// patience take every branch of the epoch loop.
func TestTrainPinned(t *testing.T) {
	for _, tc := range []struct {
		result  TrainResult
		lines   []string
		weights uint64
	}{
		{TrainResult{Epochs: 2, FinalLoss: 1.258737364494601, BestValAcc: 0, FinalLR: 0.0007937005259840997, TrainAccuracy: 0.2},
			[]string{
				"epoch 0: loss=1.2445 trainAcc=0.178 valAcc=0.000 lr=0.001",
				"epoch 1: loss=1.2587 trainAcc=0.200 valAcc=0.000 lr=0.0007937005259840997",
			}, 0x5ee8ecc945ae5619},
	} {
		rng := sim.NewRNG(70)
		train, val := synthDataset(rng, 60, 10).Split(0.25, rng)
		m, err := NewLSTMFCN(LSTMFCNConfig{
			Channels: 2, Classes: 3,
			ConvFilters: [3]int{4, 4, 4},
			Kernels:     [3]int{3, 3, 3},
			LSTMCells:   4,
			Dropout:     0.1,
		}, sim.NewRNG(71))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig()
		cfg.Epochs, cfg.Patience = 2, 1
		var lines []string
		cfg.Verbose = func(s string) { lines = append(lines, s) }
		res, err := Train(m, train, val, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, p := range m.Params() {
			for _, w := range p.W {
				binary.Write(h, binary.LittleEndian, math.Float64bits(w))
			}
		}
		if res != tc.result {
			t.Errorf("result %#v, want %#v", res, tc.result)
		}
		if !slices.Equal(lines, tc.lines) {
			t.Errorf("verbose %#v, want %#v", lines, tc.lines)
		}
		if got := h.Sum64(); got != tc.weights {
			t.Errorf("weight digest %#x, want %#x", got, tc.weights)
		}
	}
}
