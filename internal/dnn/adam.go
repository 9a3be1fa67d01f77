package dnn

import (
	"fmt"
	"math"
)

// Adam is the Adam optimizer (Kingma & Ba, 2014), the optimizer the paper
// trains with (initial learning rate 1e-3, final 1e-4, reduced by a factor
// of 1/cbrt(2) after every 150 epochs without validation improvement).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	MinLR   float64
	ClipVal float64 // per-element gradient clip; 0 disables

	step int
	m, v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the paper's defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		MinLR:   1e-4,
		ClipVal: 5,
		m:       make(map[*Param][]float64),
		v:       make(map[*Param][]float64),
	}
}

// Step applies one update to every parameter and clears the gradients.
func (a *Adam) Step(params []*Param) {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		m := a.m[p]
		if m == nil {
			m = make([]float64, len(p.W))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.W))
		}
		v := a.v[p]
		for i, g := range p.Grad {
			if a.ClipVal > 0 {
				if g > a.ClipVal {
					g = a.ClipVal
				} else if g < -a.ClipVal {
					g = -a.ClipVal
				}
			}
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / b1c
			vhat := v[i] / b2c
			p.W[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// ReduceLR multiplies the learning rate by 1/cbrt(2), flooring at MinLR,
// per the paper's plateau schedule. It reports whether the rate changed.
func (a *Adam) ReduceLR() bool {
	if a.LR <= a.MinLR {
		// At (or, if misconfigured, below) the floor: clamp and report
		// whether the clamp moved the rate.
		changed := a.LR < a.MinLR
		a.LR = a.MinLR
		return changed
	}
	next := a.LR / math.Cbrt(2)
	if next < a.MinLR {
		next = a.MinLR
	}
	a.LR = next
	return true
}

// String describes the optimizer state.
func (a *Adam) String() string {
	return fmt.Sprintf("Adam(lr=%g, step=%d)", a.LR, a.step)
}
