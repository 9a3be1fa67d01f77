// Package dnn is a from-scratch, stdlib-only deep-learning stack
// implementing the LSTM-FCN time-series classifier (Karim et al., IEEE
// Access 2018) that the paper's DNN-based detection scheme builds on:
// temporal convolution blocks with batch normalization and ReLU, global
// average pooling, an attention LSTM branch fed through a dimension
// shuffle, dropout, a softmax classifier, and the Adam optimizer with the
// paper's plateau learning-rate schedule.
//
// The paper trains with TensorFlow; no Go binding exists, so the stack is
// reimplemented here. Every layer has a hand-written backward pass,
// verified against numerical gradients in the test suite.
package dnn

import "fmt"

// Tensor is a dense rank-3 array laid out [batch][time][channel].
// Vector-shaped activations use T == 1.
type Tensor struct {
	B, T, C int
	Data    []float64
}

// NewTensor returns a zeroed tensor of the given shape.
func NewTensor(b, t, c int) *Tensor {
	if b <= 0 || t <= 0 || c <= 0 {
		panic(fmt.Sprintf("dnn: invalid tensor shape (%d,%d,%d)", b, t, c))
	}
	return &Tensor{B: b, T: t, C: c, Data: make([]float64, b*t*c)}
}

// At returns the element at (b, t, c).
func (x *Tensor) At(b, t, c int) float64 { return x.Data[(b*x.T+t)*x.C+c] }

// Set stores v at (b, t, c).
func (x *Tensor) Set(b, t, c int, v float64) { x.Data[(b*x.T+t)*x.C+c] = v }

// Add accumulates v at (b, t, c).
func (x *Tensor) Add(b, t, c int, v float64) { x.Data[(b*x.T+t)*x.C+c] += v }

// Row returns the channel slice at (b, t); mutations write through.
func (x *Tensor) Row(b, t int) []float64 {
	off := (b*x.T + t) * x.C
	return x.Data[off : off+x.C]
}

// Clone returns a deep copy.
func (x *Tensor) Clone() *Tensor {
	y := NewTensor(x.B, x.T, x.C)
	copy(y.Data, x.Data)
	return y
}

// ensureTensor reshapes the workspace tensor at *ws to (b, t, c), reusing
// the backing array when its capacity suffices, and zeroes the data. Every
// layer keeps its outputs and input gradients in such workspaces, so a
// steady-state training step allocates nothing: the returned tensor is
// valid until the next call that reuses the same workspace.
func ensureTensor(ws **Tensor, b, t, c int) *Tensor {
	n := b * t * c
	w := *ws
	if w == nil || cap(w.Data) < n {
		w = NewTensor(b, t, c)
		*ws = w
		return w
	}
	w.B, w.T, w.C = b, t, c
	w.Data = w.Data[:n]
	clear(w.Data)
	return w
}

// ensureFloats resizes the workspace slice at *ws to length n, reusing
// capacity, and zeroes it.
func ensureFloats(ws *[]float64, n int) []float64 {
	s := *ws
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*ws = s
	return s
}

// ensureBools resizes the workspace slice at *ws to length n, reusing
// capacity. The contents are unspecified; callers overwrite every element.
func ensureBools(ws *[]bool, n int) []bool {
	s := *ws
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
	}
	*ws = s
	return s
}

// Param is one trainable parameter block with its gradient accumulator.
type Param struct {
	Name string
	W    []float64
	Grad []float64
}

// newParam allocates a parameter of n weights.
func newParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Layer is a differentiable module. Forward stores whatever state Backward
// needs; layers are therefore stateful and not safe for concurrent use.
type Layer interface {
	// Forward computes the layer output. train enables training-only
	// behaviour (dropout masks, batch statistics).
	Forward(x *Tensor, train bool) *Tensor
	// Backward receives dL/d(output) and returns dL/d(input), adding
	// parameter gradients into Params().
	Backward(grad *Tensor) *Tensor
	// Params returns the trainable parameters (nil if none).
	Params() []*Param
}
