package dnn

import (
	"fmt"
	"math"

	"memdos/internal/sim"
)

// LSTM is a single-layer long short-term memory network. Forward consumes
// [B][T][C] and emits every hidden state, [B][T][H]; pair it with Attention
// (or take the final step) for classification.
//
// The recurrence is batched: at each time step the [B × 4H] gate
// pre-activations are two GEMMs (X_t·Wx and H_{t-1}·Wh, both sliced
// strided out of the [B][T][*] tensors) plus the broadcast bias, and the
// backward pass mirrors them as gemmTN (dW) / gemmNT (dX, dH) calls. All
// state lives in layer workspaces reused across steps.
type LSTM struct {
	In, Hidden int
	wx, wh, b  *Param

	// forward cache for BPTT
	x          *Tensor
	hs, cs     *Tensor // hidden and cell states, [B][T][H]
	gates      []float64
	batch, tln int

	// workspaces
	pre, dpre, dh, dc []float64
	dx                *Tensor
}

// Gate order within the fused weight matrices.
const (
	gateI = iota
	gateF
	gateO
	gateG
	numGates
)

// NewLSTM returns an LSTM with Glorot-initialized weights and forget-gate
// bias 1.
func NewLSTM(in, hidden int, rng *sim.RNG) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		wx: newParam(fmt.Sprintf("lstm%dx%d.wx", in, hidden), in*numGates*hidden),
		wh: newParam(fmt.Sprintf("lstm%dx%d.wh", in, hidden), hidden*numGates*hidden),
		b:  newParam(fmt.Sprintf("lstm%dx%d.b", in, hidden), numGates*hidden),
	}
	limX := math.Sqrt(6 / float64(in+hidden))
	for i := range l.wx.W {
		l.wx.W[i] = rng.Uniform(-limX, limX)
	}
	limH := math.Sqrt(6 / float64(2*hidden))
	for i := range l.wh.W {
		l.wh.W[i] = rng.Uniform(-limH, limH)
	}
	for h := 0; h < hidden; h++ {
		l.b.W[gateF*hidden+h] = 1
	}
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// gateRow returns the cached [4H] gate activations of step (b, t).
func (l *LSTM) gateRow(b, t int) []float64 {
	g4 := numGates * l.Hidden
	off := (b*l.tln + t) * g4
	return l.gates[off : off+g4]
}

// Forward runs the recurrence from zero initial state.
func (l *LSTM) Forward(x *Tensor, train bool) *Tensor {
	if x.C != l.In {
		panic(fmt.Sprintf("dnn: lstm expects %d channels, got %d", l.In, x.C))
	}
	B, T, H := x.B, x.T, l.Hidden
	g4 := numGates * H
	l.x = x
	l.batch, l.tln = B, T
	hs := ensureTensor(&l.hs, B, T, H)
	cs := ensureTensor(&l.cs, B, T, H)
	l.gates = ensureFloats(&l.gates, B*T*g4)
	pre := ensureFloats(&l.pre, B*g4)

	for t := 0; t < T; t++ {
		// pre[b] = bias + x_t[b]·Wx + h_{t-1}[b]·Wh, all b at once.
		addBiasRows(B, g4, pre, g4, l.b.W)
		gemmNN(B, g4, l.In, x.Data[t*x.C:], T*x.C, l.wx.W, g4, pre, g4)
		if t > 0 {
			gemmNN(B, g4, H, hs.Data[(t-1)*H:], T*H, l.wh.W, g4, pre, g4)
		}
		for b := 0; b < B; b++ {
			pr := pre[b*g4 : (b+1)*g4]
			gr := l.gateRow(b, t)
			hr := hs.Row(b, t)
			cr := cs.Row(b, t)
			var cPrev []float64
			if t > 0 {
				cPrev = cs.Row(b, t-1)
			}
			for h := 0; h < H; h++ {
				ig := sigmoid(pr[gateI*H+h])
				fg := sigmoid(pr[gateF*H+h])
				og := sigmoid(pr[gateO*H+h])
				gg := math.Tanh(pr[gateG*H+h])
				gr[gateI*H+h] = ig
				gr[gateF*H+h] = fg
				gr[gateO*H+h] = og
				gr[gateG*H+h] = gg
				c := ig * gg
				if cPrev != nil {
					c += fg * cPrev[h]
				}
				cr[h] = c
				hr[h] = og * math.Tanh(c)
			}
		}
	}
	return hs
}

// Backward runs truncated-free full BPTT over the stored sequence, one
// batched step at a time.
func (l *LSTM) Backward(grad *Tensor) *Tensor {
	x := l.x
	B, T, H := l.batch, l.tln, l.Hidden
	g4 := numGates * H
	dx := ensureTensor(&l.dx, B, T, x.C)
	dh := ensureFloats(&l.dh, B*H)
	dc := ensureFloats(&l.dc, B*H)
	dpre := ensureFloats(&l.dpre, B*g4)

	for t := T - 1; t >= 0; t-- {
		for b := 0; b < B; b++ {
			gr := grad.Row(b, t)
			cr := l.cs.Row(b, t)
			gate := l.gateRow(b, t)
			dhr := dh[b*H : (b+1)*H]
			dcr := dc[b*H : (b+1)*H]
			dpr := dpre[b*g4 : (b+1)*g4]
			var cPrev []float64
			if t > 0 {
				cPrev = l.cs.Row(b, t-1)
			}
			for h := 0; h < H; h++ {
				dhT := dhr[h] + gr[h]
				ig := gate[gateI*H+h]
				fg := gate[gateF*H+h]
				og := gate[gateO*H+h]
				gg := gate[gateG*H+h]
				tc := math.Tanh(cr[h])
				dcT := dcr[h] + dhT*og*(1-tc*tc)
				dpr[gateO*H+h] = dhT * tc * og * (1 - og)
				dpr[gateI*H+h] = dcT * gg * ig * (1 - ig)
				dpr[gateG*H+h] = dcT * ig * (1 - gg*gg)
				if cPrev != nil {
					dpr[gateF*H+h] = dcT * cPrev[h] * fg * (1 - fg)
					dcr[h] = dcT * fg
				} else {
					dpr[gateF*H+h] = 0
					dcr[h] = 0
				}
			}
		}
		// Parameter, input and recurrent gradients for the whole batch.
		colSums(B, g4, dpre, g4, l.b.Grad)
		gemmTN(l.In, g4, B, x.Data[t*x.C:], T*x.C, dpre, g4, l.wx.Grad, g4)
		gemmNT(B, l.In, g4, dpre, g4, l.wx.W, g4, dx.Data[t*x.C:], T*x.C)
		clear(dh)
		if t > 0 {
			gemmTN(H, g4, B, l.hs.Data[(t-1)*H:], T*H, dpre, g4, l.wh.Grad, g4)
			gemmNT(B, H, g4, dpre, g4, l.wh.W, g4, dh, H)
		}
	}
	return dx
}

// Params returns the fused gate weights and biases.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// Attention pools a hidden-state sequence [B][T][H] into a context vector
// [B][1][H] with additive (Bahdanau-style) attention:
// score_t = v . tanh(Wa h_t), a = softmax(score), ctx = sum_t a_t h_t.
//
// The score network runs as one [B·T × H] GEMM against Wa with a fused
// tanh+dot epilogue, and the context/gradient reductions over time are
// GEMV calls against each sample's [T × H] hidden block.
type Attention struct {
	H      int
	wa, va *Param

	h     *Tensor
	tanhW *Tensor
	attn  []float64 // flat [B][T] softmax weights

	// workspaces
	y, dh *Tensor
	dAttn []float64
}

// NewAttention returns an attention layer over H-dimensional states.
func NewAttention(h int, rng *sim.RNG) *Attention {
	a := &Attention{
		H:  h,
		wa: newParam(fmt.Sprintf("attn%d.w", h), h*h),
		va: newParam(fmt.Sprintf("attn%d.v", h), h),
	}
	limit := math.Sqrt(6 / float64(2*h))
	for i := range a.wa.W {
		a.wa.W[i] = rng.Uniform(-limit, limit)
	}
	for i := range a.va.W {
		a.va.W[i] = rng.Uniform(-limit, limit)
	}
	return a
}

// Forward computes the attention-weighted context.
func (a *Attention) Forward(h *Tensor, train bool) *Tensor {
	if h.C != a.H {
		panic(fmt.Sprintf("dnn: attention expects %d channels, got %d", a.H, h.C))
	}
	B, T, H := h.B, h.T, a.H
	a.h = h
	// Score pre-activations for every (b, t) in one GEMM, then the fused
	// tanh + v-dot epilogue per row.
	tw := ensureTensor(&a.tanhW, B, T, H)
	gemmNN(B*T, H, H, h.Data, H, a.wa.W, H, tw.Data, H)
	attn := ensureFloats(&a.attn, B*T)
	y := ensureTensor(&a.y, B, 1, H)
	for b := 0; b < B; b++ {
		scores := attn[b*T : (b+1)*T]
		for t := 0; t < T; t++ {
			scores[t] = tanhRowDot(tw.Row(b, t), a.va.W)
		}
		// softmax
		maxS := scores[0]
		for _, s := range scores[1:] {
			if s > maxS {
				maxS = s
			}
		}
		var sum float64
		for t := range scores {
			scores[t] = math.Exp(scores[t] - maxS)
			sum += scores[t]
		}
		for t := range scores {
			scores[t] /= sum
		}
		// ctx = attnᵀ · H_b as a transposed GEMV over the hidden block.
		gemvT(T, H, h.Data[b*T*H:], H, scores, y.Row(b, 0))
	}
	return y
}

// Backward propagates through the weighted sum, the softmax, and the score
// network.
func (a *Attention) Backward(grad *Tensor) *Tensor {
	h := a.h
	B, T, H := h.B, h.T, a.H
	dh := ensureTensor(&a.dh, B, T, H)
	dAttn := ensureFloats(&a.dAttn, T)
	for b := 0; b < B; b++ {
		gr := grad.Row(b, 0)
		attn := a.attn[b*T : (b+1)*T]
		// d/d attn = H_b · gr (a GEMV); d/d h_t (direct) = attn_t * gr.
		clear(dAttn)
		gemv(T, H, h.Data[b*T*H:], H, gr, dAttn)
		for t := 0; t < T; t++ {
			axpy(attn[t], gr, dh.Row(b, t))
		}
		// Softmax backward: dScore_t = attn_t * (dAttn_t - sum_j attn_j dAttn_j).
		dot := dotVec(attn, dAttn)
		for t := 0; t < T; t++ {
			dScore := attn[t] * (dAttn[t] - dot)
			// va gradient, and tanhW overwritten in place with
			// dTanh = dScore * va * (1 - tanh²) for the two GEMMs below.
			twr := a.tanhW.Row(b, t)
			for o := 0; o < H; o++ {
				tv := twr[o]
				a.va.Grad[o] += dScore * tv
				twr[o] = dScore * a.va.W[o] * (1 - tv*tv)
			}
		}
	}
	// wa.Grad += hᵀ·dTanh and dh += dTanh·Waᵀ over all (b, t) rows.
	gemmTN(H, H, B*T, h.Data, H, a.tanhW.Data, H, a.wa.Grad, H)
	gemmNT(B*T, H, H, a.tanhW.Data, H, a.wa.W, H, dh.Data, H)
	return dh
}

// Params returns the score-network parameters.
func (a *Attention) Params() []*Param { return []*Param{a.wa, a.va} }
