package dnn

import (
	"fmt"

	"memdos/internal/sim"
)

// LSTMFCNConfig sizes one LSTM-FCN classifier.
type LSTMFCNConfig struct {
	// Channels is the number of input channels (2 for AccessNum+MissNum;
	// the cascade's second stage appends the application one-hot).
	Channels int
	// Classes is the softmax width.
	Classes int
	// ConvFilters are the three temporal convolution block widths; the
	// paper uses {128, 256, 128}.
	ConvFilters [3]int
	// Kernels are the corresponding kernel sizes; LSTM-FCN uses {8, 5, 3}
	// (rounded here to odd sizes for symmetric padding).
	Kernels [3]int
	// LSTMCells is the attention-LSTM width; the paper uses 256.
	LSTMCells int
	// Dropout is the rate after the LSTM block.
	Dropout float64
}

// PaperLSTMFCNConfig returns the full-size architecture of the paper.
func PaperLSTMFCNConfig(channels, classes int) LSTMFCNConfig {
	return LSTMFCNConfig{
		Channels:    channels,
		Classes:     classes,
		ConvFilters: [3]int{128, 256, 128},
		Kernels:     [3]int{9, 5, 3},
		LSTMCells:   256,
		Dropout:     0.2,
	}
}

// CompactLSTMFCNConfig returns a reduced architecture with the same
// topology, sized for CPU-only training (see DESIGN.md on the TensorFlow
// substitution).
func CompactLSTMFCNConfig(channels, classes int) LSTMFCNConfig {
	return LSTMFCNConfig{
		Channels:    channels,
		Classes:     classes,
		ConvFilters: [3]int{12, 24, 12},
		Kernels:     [3]int{9, 5, 3},
		LSTMCells:   16,
		Dropout:     0.2,
	}
}

// Validate reports whether the configuration is usable.
func (c LSTMFCNConfig) Validate() error {
	if c.Channels <= 0 || c.Classes <= 1 {
		return fmt.Errorf("dnn: invalid channels %d / classes %d", c.Channels, c.Classes)
	}
	for i, f := range c.ConvFilters {
		if f <= 0 {
			return fmt.Errorf("dnn: conv filter %d non-positive", i)
		}
		if c.Kernels[i] <= 0 || c.Kernels[i]%2 == 0 {
			return fmt.Errorf("dnn: kernel %d must be odd positive, got %d", i, c.Kernels[i])
		}
	}
	if c.LSTMCells <= 0 {
		return fmt.Errorf("dnn: non-positive LSTM cells")
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		return fmt.Errorf("dnn: dropout %v outside [0,1)", c.Dropout)
	}
	return nil
}

// weights returns how many trainable parameters an LSTMFCN of this
// configuration holds at window length w — in float64, so dimensions
// read from an untrusted snapshot cannot overflow the count.
func (c LSTMFCNConfig) weights(w int) float64 {
	n, in := 0.0, float64(c.Channels)
	for i, f := range c.ConvFilters {
		out := float64(f)
		n += out*float64(c.Kernels[i])*in + out // convolution w, b
		n += 2 * out                            // batch-norm gamma, beta
		in = out
	}
	h, k := float64(c.LSTMCells), float64(c.Classes)
	n += numGates * h * (float64(w) + h + 1) // LSTM wx, wh, b
	n += h*h + h                             // attention w, v
	n += (in+h)*k + k                        // output dense w, b
	return n
}

// LSTMFCN is the two-branch classifier of Fig. 9: a fully convolutional
// branch (three conv+BN+ReLU blocks and global average pooling) views the
// window as a multivariate time series, while the dimension-shuffled
// attention-LSTM branch views each channel as one step of a C-step
// sequence of W-dimensional observations. The branch outputs are
// concatenated into a softmax classifier.
type LSTMFCN struct {
	cfg LSTMFCNConfig

	conv1, conv2, conv3 *Conv1D
	bn1, bn2, bn3       *BatchNorm
	relu1, relu2, relu3 *ReLU
	pool                *GlobalAvgPool

	shuffle Transpose
	lstm    *LSTM
	attn    *Attention
	drop    *Dropout

	out *Dense

	// lstmRNG seeds the lazily constructed LSTM/attention pair (the LSTM
	// input size equals the window length, which is data-dependent).
	lstmRNG *sim.RNG

	// backward bookkeeping
	fcnC, lstmC int

	// workspaces for the branch join
	joint, gF, gCtx *Tensor
}

// NewLSTMFCN builds the model with the given configuration. The window
// length is not fixed at construction; any T works.
func NewLSTMFCN(cfg LSTMFCNConfig, rng *sim.RNG) (*LSTMFCN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &LSTMFCN{cfg: cfg}
	// The ReLUs and the dropout run in place on the arena path: their
	// upstream workspace (batch-norm output, attention context) is dead
	// after the activation, so mutating it saves a full tensor pass.
	m.conv1 = NewConv1D(cfg.Channels, cfg.ConvFilters[0], cfg.Kernels[0], rng.Split())
	m.bn1 = NewBatchNorm(cfg.ConvFilters[0])
	m.relu1 = &ReLU{InPlace: true}
	m.conv2 = NewConv1D(cfg.ConvFilters[0], cfg.ConvFilters[1], cfg.Kernels[1], rng.Split())
	m.bn2 = NewBatchNorm(cfg.ConvFilters[1])
	m.relu2 = &ReLU{InPlace: true}
	m.conv3 = NewConv1D(cfg.ConvFilters[1], cfg.ConvFilters[2], cfg.Kernels[2], rng.Split())
	m.bn3 = NewBatchNorm(cfg.ConvFilters[2])
	m.relu3 = &ReLU{InPlace: true}
	m.pool = &GlobalAvgPool{}

	// The LSTM input size is the window length after the dimension
	// shuffle; it is data-dependent, so the LSTM is built lazily on the
	// first Forward. See ensureLSTM.
	m.drop = NewDropout(cfg.Dropout, rng.Split())
	m.drop.InPlace = true
	m.out = NewDense(cfg.ConvFilters[2]+cfg.LSTMCells, cfg.Classes, rng.Split())
	m.fcnC = cfg.ConvFilters[2]
	m.lstmC = cfg.LSTMCells
	m.lstmRNG = rng.Split()

	// Canonical, position-based parameter names: the shape-derived
	// default names can collide between layers of equal width, and
	// serialization keys parameters by name.
	rename := func(prefix string, layers ...Layer) {
		for i, l := range layers {
			for _, p := range l.Params() {
				p.Name = fmt.Sprintf("%s%d.%s", prefix, i+1, paramSuffix(p.Name))
			}
		}
	}
	rename("conv", m.conv1, m.conv2, m.conv3)
	rename("bn", m.bn1, m.bn2, m.bn3)
	rename("out", m.out)
	return m, nil
}

// paramSuffix extracts the trailing role ("w", "b", "gamma", ...) from a
// default parameter name like "conv12x5x3.w".
func paramSuffix(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}

// ensureLSTM builds the LSTM branch for window length w on first use and
// rejects mismatched window lengths afterwards.
func (m *LSTMFCN) ensureLSTM(w int) {
	if m.lstm == nil {
		m.lstm = NewLSTM(w, m.cfg.LSTMCells, m.lstmRNG.Split())
		m.attn = NewAttention(m.cfg.LSTMCells, m.lstmRNG.Split())
		return
	}
	if m.lstm.In != w {
		panic(fmt.Sprintf("dnn: model built for window %d, got %d", m.lstm.In, w))
	}
}

// Forward classifies a batch of windows [B][W][C] into logits [B][1][K].
func (m *LSTMFCN) Forward(x *Tensor, train bool) *Tensor {
	// FCN branch.
	f := m.relu1.Forward(m.bn1.Forward(m.conv1.Forward(x, train), train), train)
	f = m.relu2.Forward(m.bn2.Forward(m.conv2.Forward(f, train), train), train)
	f = m.relu3.Forward(m.bn3.Forward(m.conv3.Forward(f, train), train), train)
	f = m.pool.Forward(f, train)

	// LSTM branch through the dimension shuffle: [B][W][C] -> [B][C][W].
	s := m.shuffle.Forward(x, train)
	m.ensureLSTM(s.C)
	h := m.lstm.Forward(s, train)
	ctx := m.attn.Forward(h, train)
	ctx = m.drop.Forward(ctx, train)

	joint := concatChannelsInto(&m.joint, f, ctx)
	return m.out.Forward(joint, train)
}

// Backward propagates from the logit gradient back to (discarded) input
// gradients, accumulating parameter gradients.
func (m *LSTMFCN) Backward(grad *Tensor) {
	dJoint := m.out.Backward(grad)
	dF, dCtx := splitChannelsInto(&m.gF, &m.gCtx, dJoint, m.fcnC, m.lstmC)

	dCtx = m.drop.Backward(dCtx)
	dH := m.attn.Backward(dCtx)
	dS := m.lstm.Backward(dH)
	m.shuffle.Backward(dS) // input gradient, discarded

	df := m.pool.Backward(dF)
	df = m.conv3.Backward(m.bn3.Backward(m.relu3.Backward(df)))
	df = m.conv2.Backward(m.bn2.Backward(m.relu2.Backward(df)))
	m.conv1.Backward(m.bn1.Backward(m.relu1.Backward(df)))
}

// Params returns all trainable parameters.
func (m *LSTMFCN) Params() []*Param {
	ps := []*Param{}
	for _, l := range []Layer{m.conv1, m.bn1, m.conv2, m.bn2, m.conv3, m.bn3, m.out} {
		ps = append(ps, l.Params()...)
	}
	if m.lstm != nil {
		ps = append(ps, m.lstm.Params()...)
		ps = append(ps, m.attn.Params()...)
	}
	return ps
}

// Predict returns the class probabilities for a batch (inference mode).
func (m *LSTMFCN) Predict(x *Tensor) *Tensor {
	logits := m.Forward(x, false)
	_, probs, _ := SoftmaxCrossEntropy(logits, make([]int, x.B))
	return probs
}

// Classify returns the argmax class per sample.
func (m *LSTMFCN) Classify(x *Tensor) []int {
	probs := m.Predict(x)
	out := make([]int, x.B)
	for b := 0; b < x.B; b++ {
		out[b] = Argmax(probs.Row(b, 0))
	}
	return out
}
