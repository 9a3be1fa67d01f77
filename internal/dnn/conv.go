package dnn

import (
	"fmt"
	"math"

	"memdos/internal/sim"
)

// Conv1D is a temporal convolution with "same" zero padding:
// y[b][t][o] = bias[o] + sum_{dt, i} w[o][dt][i] * x[b][t+dt-k/2][i].
//
// Forward lowers the input to an im2col matrix — row (b, t) holds the K·In
// receptive field of output position (b, t), zero where the field hangs
// over the window edge — so the convolution is one [B·T × K·In]·[Out ×
// K·In]ᵀ GEMM. Backward reuses the same matrix for dW and scatters the
// GEMM-produced dcols back through col2im. Both buffers live in the layer
// and are reused across steps.
type Conv1D struct {
	In, Out, K int
	w, b       *Param
	x          *Tensor

	// workspaces
	cols, dcols []float64
	y, dx       *Tensor
}

// NewConv1D returns a Conv1D with He-uniform initialization (the layers are
// followed by ReLU).
func NewConv1D(in, out, k int, rng *sim.RNG) *Conv1D {
	if k <= 0 || k%2 == 0 {
		panic(fmt.Sprintf("dnn: conv kernel %d must be odd and positive", k))
	}
	c := &Conv1D{
		In: in, Out: out, K: k,
		w: newParam(fmt.Sprintf("conv%dx%dx%d.w", out, k, in), out*k*in),
		b: newParam(fmt.Sprintf("conv%dx%dx%d.b", out, k, in), out),
	}
	limit := math.Sqrt(6 / float64(in*k))
	for i := range c.w.W {
		c.w.W[i] = rng.Uniform(-limit, limit)
	}
	return c
}

// im2col fills c.cols with the receptive fields of x; rows are (b, t) in
// batch-major order, columns are (dt, i). Out-of-window taps stay zero.
func (c *Conv1D) im2col(x *Tensor) {
	ki := c.K * c.In
	cols := ensureFloats(&c.cols, x.B*x.T*ki)
	half := c.K / 2
	for b := 0; b < x.B; b++ {
		for t := 0; t < x.T; t++ {
			base := (b*x.T + t) * ki
			for dt := 0; dt < c.K; dt++ {
				src := t + dt - half
				if src < 0 || src >= x.T {
					continue
				}
				copy(cols[base+dt*c.In:base+(dt+1)*c.In], x.Row(b, src))
			}
		}
	}
}

// Forward computes the padded convolution as im2col + GEMM.
func (c *Conv1D) Forward(x *Tensor, train bool) *Tensor {
	if x.C != c.In {
		panic(fmt.Sprintf("dnn: conv expects %d channels, got %d", c.In, x.C))
	}
	c.x = x
	c.im2col(x)
	m, ki := x.B*x.T, c.K*c.In
	y := ensureTensor(&c.y, x.B, x.T, c.Out)
	addBiasRows(m, c.Out, y.Data, c.Out, c.b.W)
	gemmNT(m, c.Out, ki, c.cols, ki, c.w.W, ki, y.Data, c.Out)
	return y
}

// Backward accumulates parameter gradients and returns dL/dx:
// db += colsums(g), dW += gᵀ·cols, dcols = g·W, dx = col2im(dcols).
func (c *Conv1D) Backward(grad *Tensor) *Tensor {
	x := c.x
	m, ki := x.B*x.T, c.K*c.In
	colSums(m, c.Out, grad.Data, c.Out, c.b.Grad)
	gemmTN(c.Out, ki, m, grad.Data, c.Out, c.cols, ki, c.w.Grad, ki)

	dcols := ensureFloats(&c.dcols, m*ki)
	gemmNN(m, ki, c.Out, grad.Data, c.Out, c.w.W, ki, dcols, ki)

	dx := ensureTensor(&c.dx, x.B, x.T, c.In)
	half := c.K / 2
	for b := 0; b < x.B; b++ {
		for t := 0; t < x.T; t++ {
			base := (b*x.T + t) * ki
			for dt := 0; dt < c.K; dt++ {
				src := t + dt - half
				if src < 0 || src >= x.T {
					continue
				}
				addTo(dx.Row(b, src), dcols[base+dt*c.In:base+(dt+1)*c.In])
			}
		}
	}
	return dx
}

// Params returns the kernel and bias parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }
