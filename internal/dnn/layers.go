package dnn

import (
	"fmt"
	"math"

	"memdos/internal/sim"
)

// Dense is a fully connected layer applied per (batch, time) position:
// y = x*W + b with W of shape [Cin][Cout]. The (B, T) positions are one
// flat [B·T × Cin] matrix, so forward and backward are single GEMMs.
type Dense struct {
	In, Out int
	w, b    *Param
	x       *Tensor
	y, dx   *Tensor // workspaces
}

// NewDense returns a Dense layer with Glorot-uniform initialization.
func NewDense(in, out int, rng *sim.RNG) *Dense {
	d := &Dense{
		In: in, Out: out,
		w: newParam(fmt.Sprintf("dense%dx%d.w", in, out), in*out),
		b: newParam(fmt.Sprintf("dense%dx%d.b", in, out), out),
	}
	limit := math.Sqrt(6 / float64(in+out))
	for i := range d.w.W {
		d.w.W[i] = rng.Uniform(-limit, limit)
	}
	return d
}

// Forward computes the affine map as one GEMM over the flattened batch.
func (d *Dense) Forward(x *Tensor, train bool) *Tensor {
	if x.C != d.In {
		panic(fmt.Sprintf("dnn: dense expects %d channels, got %d", d.In, x.C))
	}
	d.x = x
	m := x.B * x.T
	y := ensureTensor(&d.y, x.B, x.T, d.Out)
	addBiasRows(m, d.Out, y.Data, d.Out, d.b.W)
	gemmNN(m, d.Out, d.In, x.Data, d.In, d.w.W, d.Out, y.Data, d.Out)
	return y
}

// Backward propagates gradients and accumulates dW, db:
// dW += xᵀ·g, db += colsums(g), dx = g·Wᵀ.
func (d *Dense) Backward(grad *Tensor) *Tensor {
	x := d.x
	m := x.B * x.T
	dx := ensureTensor(&d.dx, x.B, x.T, d.In)
	colSums(m, d.Out, grad.Data, d.Out, d.b.Grad)
	gemmTN(d.In, d.Out, m, x.Data, d.In, grad.Data, d.Out, d.w.Grad, d.Out)
	gemmNT(m, d.In, d.Out, grad.Data, d.Out, d.w.W, d.Out, dx.Data, d.In)
	return dx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// ReLU is the rectified linear activation. With InPlace set it mutates the
// incoming tensor (the upstream layer's workspace) instead of writing to
// its own, saving a full activation pass; the model enables this on the
// arena path, where the upstream buffer is dead after the activation.
type ReLU struct {
	InPlace bool
	mask    []bool
	y, dx   *Tensor // workspaces (out-of-place mode only)
}

// Forward zeroes negative inputs.
func (r *ReLU) Forward(x *Tensor, train bool) *Tensor {
	y := x
	if !r.InPlace {
		y = ensureTensor(&r.y, x.B, x.T, x.C)
	}
	mask := ensureBools(&r.mask, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			mask[i] = true
			y.Data[i] = v
		} else {
			mask[i] = false
			y.Data[i] = 0
		}
	}
	return y
}

// Backward gates the gradient by the forward mask.
func (r *ReLU) Backward(grad *Tensor) *Tensor {
	dx := grad
	if !r.InPlace {
		dx = ensureTensor(&r.dx, grad.B, grad.T, grad.C)
	}
	for i, v := range grad.Data {
		if r.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns nil.
func (r *ReLU) Params() []*Param { return nil }

// Dropout zeroes a fraction of activations during training and scales the
// survivors (inverted dropout). InPlace mutates the incoming tensor like
// ReLU.InPlace does.
type Dropout struct {
	Rate    float64
	InPlace bool
	rng     *sim.RNG
	mask    []float64
	y, dx   *Tensor // workspaces (out-of-place mode only)
}

// NewDropout returns a dropout layer with the given drop rate.
func NewDropout(rate float64, rng *sim.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("dnn: dropout rate %v outside [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward applies the mask during training; identity at inference.
func (d *Dropout) Forward(x *Tensor, train bool) *Tensor {
	if !train || d.Rate == 0 { // Rate is a config literal; zero means dropout disabled
		d.mask = nil
		return x
	}
	y := x
	if !d.InPlace {
		y = ensureTensor(&d.y, x.B, x.T, x.C)
	}
	mask := ensureFloats(&d.mask, len(x.Data))
	scale := 1 / (1 - d.Rate)
	for i, v := range x.Data {
		if d.rng.Float64() < d.Rate {
			mask[i] = 0
			y.Data[i] = 0
		} else {
			mask[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *Tensor) *Tensor {
	if d.mask == nil {
		return grad
	}
	dx := grad
	if !d.InPlace {
		dx = ensureTensor(&d.dx, grad.B, grad.T, grad.C)
	}
	for i, v := range grad.Data {
		dx.Data[i] = v * d.mask[i]
	}
	return dx
}

// Params returns nil.
func (d *Dropout) Params() []*Param { return nil }

// GlobalAvgPool averages over the time axis: [B][T][C] -> [B][1][C].
type GlobalAvgPool struct {
	t     int
	y, dx *Tensor // workspaces
}

// Forward computes per-channel time averages.
func (g *GlobalAvgPool) Forward(x *Tensor, train bool) *Tensor {
	g.t = x.T
	y := ensureTensor(&g.y, x.B, 1, x.C)
	inv := 1 / float64(x.T)
	for b := 0; b < x.B; b++ {
		yr := y.Row(b, 0)
		for t := 0; t < x.T; t++ {
			addTo(yr, x.Row(b, t))
		}
		for c := range yr {
			yr[c] *= inv
		}
	}
	return y
}

// Backward spreads the gradient uniformly over time.
func (g *GlobalAvgPool) Backward(grad *Tensor) *Tensor {
	dx := ensureTensor(&g.dx, grad.B, g.t, grad.C)
	inv := 1 / float64(g.t)
	for b := 0; b < grad.B; b++ {
		gr := grad.Row(b, 0)
		for t := 0; t < g.t; t++ {
			dxr := dx.Row(b, t)
			for c := range gr {
				dxr[c] = gr[c] * inv
			}
		}
	}
	return dx
}

// Params returns nil.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Transpose is the LSTM-FCN "dimension shuffle": it swaps the time and
// channel axes, so the LSTM branch perceives the same window from the
// transposed view ([B][T][C] -> [B][C][T]). The input must not alias the
// layer's own previous output (each call reuses its workspace).
type Transpose struct {
	y, dx *Tensor // workspaces
}

// Forward swaps axes.
func (tr *Transpose) Forward(x *Tensor, train bool) *Tensor {
	y := ensureTensor(&tr.y, x.B, x.C, x.T)
	for b := 0; b < x.B; b++ {
		off := b * x.T * x.C
		transposeRows(y.Data[off:off+x.T*x.C], x.Data[off:off+x.T*x.C], x.T, x.C)
	}
	return y
}

// Backward swaps axes of the gradient.
func (tr *Transpose) Backward(grad *Tensor) *Tensor {
	dx := ensureTensor(&tr.dx, grad.B, grad.C, grad.T)
	for b := 0; b < grad.B; b++ {
		off := b * grad.T * grad.C
		transposeRows(dx.Data[off:off+grad.T*grad.C], grad.Data[off:off+grad.T*grad.C], grad.T, grad.C)
	}
	return dx
}

// Params returns nil.
func (tr *Transpose) Params() []*Param { return nil }

// concatChannelsInto concatenates vector activations ([B][1][*]) along the
// channel axis into the workspace at *ws.
func concatChannelsInto(ws **Tensor, a, b *Tensor) *Tensor {
	if a.B != b.B || a.T != 1 || b.T != 1 {
		panic("dnn: concat expects matching [B][1][*] tensors")
	}
	y := ensureTensor(ws, a.B, 1, a.C+b.C)
	for i := 0; i < a.B; i++ {
		copy(y.Row(i, 0)[:a.C], a.Row(i, 0))
		copy(y.Row(i, 0)[a.C:], b.Row(i, 0))
	}
	return y
}

// splitChannelsInto splits a gradient produced against concatChannelsInto
// output into the two workspaces.
func splitChannelsInto(wsA, wsB **Tensor, grad *Tensor, ca, cb int) (*Tensor, *Tensor) {
	if grad.C != ca+cb {
		panic(fmt.Sprintf("dnn: split %d != %d+%d", grad.C, ca, cb))
	}
	ga := ensureTensor(wsA, grad.B, 1, ca)
	gb := ensureTensor(wsB, grad.B, 1, cb)
	for i := 0; i < grad.B; i++ {
		copy(ga.Row(i, 0), grad.Row(i, 0)[:ca])
		copy(gb.Row(i, 0), grad.Row(i, 0)[ca:])
	}
	return ga, gb
}
