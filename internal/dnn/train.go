package dnn

import (
	"fmt"

	"memdos/internal/sim"
)

// Dataset is a labelled set of fixed-length windows.
type Dataset struct {
	// X[i] is window i, [W][C]; Y[i] its class label.
	X [][][]float64
	Y []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Add appends one labelled window.
func (d *Dataset) Add(window [][]float64, label int) {
	d.X = append(d.X, window)
	d.Y = append(d.Y, label)
}

// Split partitions the dataset into train/validation parts with the given
// validation fraction, shuffled by rng.
func (d *Dataset) Split(valFrac float64, rng *sim.RNG) (train, val *Dataset) {
	idx := rng.Perm(d.Len())
	nVal := int(valFrac * float64(d.Len()))
	train, val = &Dataset{}, &Dataset{}
	for i, j := range idx {
		if i < nVal {
			val.Add(d.X[j], d.Y[j])
		} else {
			train.Add(d.X[j], d.Y[j])
		}
	}
	return train, val
}

// batchTensorInto packs samples idx into x and y, reusing their backing
// storage when capacity allows (x may be nil on the first call). The
// returned tensor and slice are valid until the next call reusing them.
func (d *Dataset) batchTensorInto(x *Tensor, y []int, idx []int) (*Tensor, []int) {
	w := len(d.X[idx[0]])
	c := len(d.X[idx[0]][0])
	x = ensureTensor(&x, len(idx), w, c)
	if cap(y) < len(idx) {
		y = make([]int, len(idx))
	}
	y = y[:len(idx)]
	for bi, j := range idx {
		for t := 0; t < w; t++ {
			copy(x.Row(bi, t), d.X[j][t])
		}
		y[bi] = d.Y[j]
	}
	return x, y
}

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// InitialLR follows the paper (1e-3); the plateau schedule reduces it
	// by 1/cbrt(2) after Patience epochs without validation improvement,
	// flooring at the paper's final rate 1e-4.
	InitialLR float64
	// Patience is the plateau length; the paper uses 150 epochs (of
	// 3000). Scale it with Epochs for shorter runs.
	Patience int
	// Seed drives shuffling.
	Seed uint64
	// Verbose, if non-nil, receives one line per epoch.
	Verbose func(string)
}

// DefaultTrainConfig returns a CPU-friendly configuration with the paper's
// learning-rate schedule shape.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, BatchSize: 32, InitialLR: 1e-3, Patience: 5, Seed: 1}
}

// TrainResult reports the training outcome.
type TrainResult struct {
	Epochs        int
	FinalLoss     float64
	BestValAcc    float64
	FinalLR       float64
	TrainAccuracy float64
}

// Stepper drives single-batch optimization steps on one model with fully
// reused buffers: after the first (warm-up) step, Step performs the
// forward pass, the loss, the backward pass and the Adam update without
// allocating. It is the unit both Train and the train-step benchmarks
// build on.
type Stepper struct {
	M   *LSTMFCN
	Opt *Adam

	loss   LossBuffers
	params []*Param
}

// NewStepper returns a stepper for m driven by opt.
func NewStepper(m *LSTMFCN, opt *Adam) *Stepper {
	return &Stepper{M: m, Opt: opt}
}

// Step runs one forward/loss/backward/update cycle on the batch and
// returns the mean loss and the per-sample probabilities. The probability
// tensor is workspace-backed: it is valid until the next Step.
//
//memdos:hotpath
func (s *Stepper) Step(x *Tensor, y []int) (float64, *Tensor) {
	logits := s.M.Forward(x, true)
	if s.params == nil {
		// The LSTM branch is built lazily on the first forward, so the
		// parameter list is only complete now.
		s.params = s.M.Params()
	}
	loss, probs, grad := s.loss.SoftmaxCrossEntropy(logits, y)
	s.M.Backward(grad)
	s.Opt.Step(s.params)
	return loss, probs
}

// Train fits the model on train, tracking accuracy on val for the plateau
// schedule, and returns the result. Training is deterministic given the
// seed.
func Train(m *LSTMFCN, train, val *Dataset, cfg TrainConfig) (TrainResult, error) {
	if train.Len() == 0 {
		return TrainResult{}, fmt.Errorf("dnn: empty training set")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return TrainResult{}, fmt.Errorf("dnn: invalid training config %+v", cfg)
	}
	opt := NewAdam(cfg.InitialLR)
	stepper := NewStepper(m, opt)
	var x *Tensor
	var y []int
	rng := sim.NewRNG(cfg.Seed)
	bestVal := -1.0
	sincePlateau := 0
	var res TrainResult

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		idx := rng.Perm(train.Len())
		var epochLoss float64
		batches := 0
		correct := 0
		for lo := 0; lo < len(idx); lo += cfg.BatchSize {
			x, y = train.batchTensorInto(x, y, idx[lo:min(lo+cfg.BatchSize, len(idx))])
			loss, probs := stepper.Step(x, y)
			epochLoss += loss
			batches++
			for b, label := range y {
				if Argmax(probs.Row(b, 0)) == label {
					correct++
				}
			}
		}
		res.FinalLoss = epochLoss / float64(batches)
		res.TrainAccuracy = float64(correct) / float64(train.Len())

		valAcc := res.TrainAccuracy
		if val != nil && val.Len() > 0 {
			valAcc = Evaluate(m, val)
		}
		if valAcc > bestVal {
			bestVal = valAcc
			sincePlateau = 0
		} else {
			sincePlateau++
			if sincePlateau >= cfg.Patience {
				opt.ReduceLR()
				sincePlateau = 0
			}
		}
		if cfg.Verbose != nil {
			cfg.Verbose(fmt.Sprintf("epoch %d: loss=%.4f trainAcc=%.3f valAcc=%.3f lr=%g",
				epoch, res.FinalLoss, res.TrainAccuracy, valAcc, opt.LR))
		}
	}
	res.Epochs = cfg.Epochs
	res.BestValAcc = bestVal
	res.FinalLR = opt.LR
	return res, nil
}

// Evaluate returns the model's accuracy on the dataset. Inference runs
// batched over minibatches with the batch tensor, label and index buffers
// reused across chunks, and classifies straight from the logits (softmax
// is monotone, so the argmax is the same) — no per-sample tensors, no
// probability pass.
func Evaluate(m *LSTMFCN, d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	const chunk = 64
	var x *Tensor
	var y, idx []int
	for lo := 0; lo < d.Len(); lo += chunk {
		hi := min(lo+chunk, d.Len())
		idx = idx[:0]
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		x, y = d.batchTensorInto(x, y, idx)
		logits := m.Forward(x, false)
		for b, label := range y {
			if Argmax(logits.Row(b, 0)) == label {
				correct++
			}
		}
	}
	return float64(correct) / float64(d.Len())
}
