package dnn

import (
	"math"
	"testing"

	"memdos/internal/sim"
)

func fillNormal(rng *sim.RNG, xs []float64) {
	for i := range xs {
		xs[i] = rng.Normal(0, 1)
	}
}

// closeTo compares against a naive reference: the blocked kernels fuse
// unrolled multiply-adds, so they round differently than a plain
// ascending loop, but only at the last few bits.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// gemmShapes cross the gemmMC (64) and gemmKC (256) block boundaries,
// the 4-way k unroll tails, and the paired-column tail of gemmNT.
var gemmShapes = []struct{ m, n, k int }{
	{1, 1, 1}, {3, 5, 7}, {64, 16, 256}, {65, 2, 257}, {67, 33, 301}, {130, 9, 513},
}

func TestGemmNNMatchesNaive(t *testing.T) {
	rng := sim.NewRNG(100)
	for _, tc := range gemmShapes {
		a := make([]float64, tc.m*tc.k)
		b := make([]float64, tc.k*tc.n)
		c := make([]float64, tc.m*tc.n)
		fillNormal(rng, a)
		fillNormal(rng, b)
		fillNormal(rng, c)
		want := append([]float64(nil), c...)
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.n; j++ {
				for kc := 0; kc < tc.k; kc++ {
					want[i*tc.n+j] += a[i*tc.k+kc] * b[kc*tc.n+j]
				}
			}
		}
		gemmNN(tc.m, tc.n, tc.k, a, tc.k, b, tc.n, c, tc.n)
		for i := range c {
			if !closeTo(c[i], want[i]) {
				t.Fatalf("gemmNN %dx%dx%d: c[%d] = %v, want %v", tc.m, tc.n, tc.k, i, c[i], want[i])
			}
		}
	}
}

func TestGemmTNMatchesNaive(t *testing.T) {
	rng := sim.NewRNG(101)
	for _, tc := range gemmShapes {
		a := make([]float64, tc.k*tc.m) // k×m, transposed operand
		b := make([]float64, tc.k*tc.n)
		c := make([]float64, tc.m*tc.n)
		fillNormal(rng, a)
		fillNormal(rng, b)
		fillNormal(rng, c)
		want := append([]float64(nil), c...)
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.n; j++ {
				for kc := 0; kc < tc.k; kc++ {
					want[i*tc.n+j] += a[kc*tc.m+i] * b[kc*tc.n+j]
				}
			}
		}
		gemmTN(tc.m, tc.n, tc.k, a, tc.m, b, tc.n, c, tc.n)
		for i := range c {
			if !closeTo(c[i], want[i]) {
				t.Fatalf("gemmTN %dx%dx%d: c[%d] = %v, want %v", tc.m, tc.n, tc.k, i, c[i], want[i])
			}
		}
	}
}

func TestGemmNTMatchesNaive(t *testing.T) {
	rng := sim.NewRNG(102)
	for _, tc := range gemmShapes {
		a := make([]float64, tc.m*tc.k)
		b := make([]float64, tc.n*tc.k) // n×k, transposed operand
		c := make([]float64, tc.m*tc.n)
		fillNormal(rng, a)
		fillNormal(rng, b)
		fillNormal(rng, c)
		want := append([]float64(nil), c...)
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.n; j++ {
				for kc := 0; kc < tc.k; kc++ {
					want[i*tc.n+j] += a[i*tc.k+kc] * b[j*tc.k+kc]
				}
			}
		}
		gemmNT(tc.m, tc.n, tc.k, a, tc.k, b, tc.k, c, tc.n)
		for i := range c {
			if !closeTo(c[i], want[i]) {
				t.Fatalf("gemmNT %dx%dx%d: c[%d] = %v, want %v", tc.m, tc.n, tc.k, i, c[i], want[i])
			}
		}
	}
}

func TestGemmStridedViews(t *testing.T) {
	// Leading dimensions wider than the logical row: the time-step slices
	// the LSTM feeds the kernels. Compare a strided multiply against the
	// same multiply over compacted copies.
	const m, n, k, pad = 9, 11, 13, 5
	rng := sim.NewRNG(103)
	aw := make([]float64, m*(k+pad))
	bw := make([]float64, k*(n+pad))
	cw := make([]float64, m*(n+pad))
	fillNormal(rng, aw)
	fillNormal(rng, bw)
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		copy(a[i*k:(i+1)*k], aw[i*(k+pad):])
	}
	for i := 0; i < k; i++ {
		copy(b[i*n:(i+1)*n], bw[i*(n+pad):])
	}
	gemmNN(m, n, k, aw, k+pad, bw, n+pad, cw, n+pad)
	gemmNN(m, n, k, a, k, b, n, c, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if cw[i*(n+pad)+j] != c[i*n+j] {
				t.Fatalf("strided gemmNN differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestVectorKernels(t *testing.T) {
	rng := sim.NewRNG(105)
	const m, n = 7, 13
	a := make([]float64, m*n)
	x := make([]float64, n)
	xm := make([]float64, m)
	fillNormal(rng, a)
	fillNormal(rng, x)
	fillNormal(rng, xm)

	y := make([]float64, m)
	gemv(m, n, a, n, x, y)
	for i := 0; i < m; i++ {
		var want float64
		for j := 0; j < n; j++ {
			want += a[i*n+j] * x[j]
		}
		if !closeTo(y[i], want) {
			t.Errorf("gemv[%d] = %v, want %v", i, y[i], want)
		}
	}

	yt := make([]float64, n)
	gemvT(m, n, a, n, xm, yt)
	for j := 0; j < n; j++ {
		var want float64
		for i := 0; i < m; i++ {
			want += a[i*n+j] * xm[i]
		}
		if !closeTo(yt[j], want) {
			t.Errorf("gemvT[%d] = %v, want %v", j, yt[j], want)
		}
	}

	cs := make([]float64, n)
	colSums(m, n, a, n, cs)
	for j := 0; j < n; j++ {
		var want float64
		for i := 0; i < m; i++ {
			want += a[i*n+j]
		}
		if !closeTo(cs[j], want) {
			t.Errorf("colSums[%d] = %v, want %v", j, cs[j], want)
		}
	}

	// dotVec2 must reproduce dotVec bit-for-bit on both columns.
	u, v, w := make([]float64, 29), make([]float64, 29), make([]float64, 29)
	fillNormal(rng, u)
	fillNormal(rng, v)
	fillNormal(rng, w)
	s, tt := dotVec2(u, v, w)
	if s != dotVec(u, v) || tt != dotVec(u, w) {
		t.Error("dotVec2 disagrees with dotVec")
	}

	// transposeRows round-trips across a non-multiple-of-tile shape.
	const rows, cols = 19, 23
	src := make([]float64, rows*cols)
	fillNormal(rng, src)
	dst := make([]float64, rows*cols)
	back := make([]float64, rows*cols)
	transposeRows(dst, src, rows, cols)
	transposeRows(back, dst, cols, rows)
	for i := range src {
		if src[i] != back[i] {
			t.Fatalf("transposeRows round trip differs at %d", i)
		}
	}
}

// TestReLUInPlaceMatchesOutOfPlace pins the flag-gated in-place mode to
// the out-of-place semantics: identical outputs and identical gradients.
func TestReLUInPlaceMatchesOutOfPlace(t *testing.T) {
	rng := sim.NewRNG(110)
	x := randTensor(rng, 3, 7, 5)
	grad := randTensor(rng, 3, 7, 5)

	out := &ReLU{}
	in := &ReLU{InPlace: true}
	yOut := out.Forward(x, true)
	yIn := in.Forward(x.Clone(), true) // in-place mutates its input
	for i := range yOut.Data {
		if yOut.Data[i] != yIn.Data[i] {
			t.Fatalf("forward differs at %d: %v vs %v", i, yOut.Data[i], yIn.Data[i])
		}
	}
	gOut := out.Backward(grad)
	gIn := in.Backward(grad.Clone())
	for i := range gOut.Data {
		if gOut.Data[i] != gIn.Data[i] {
			t.Fatalf("backward differs at %d: %v vs %v", i, gOut.Data[i], gIn.Data[i])
		}
	}
}

func TestDropoutInPlaceMatchesOutOfPlace(t *testing.T) {
	rng := sim.NewRNG(111)
	x := randTensor(rng, 3, 7, 5)
	grad := randTensor(rng, 3, 7, 5)

	// Same-seed RNG streams so both layers draw identical masks.
	out := NewDropout(0.4, sim.NewRNG(7))
	in := NewDropout(0.4, sim.NewRNG(7))
	in.InPlace = true
	yOut := out.Forward(x, true)
	yIn := in.Forward(x.Clone(), true)
	for i := range yOut.Data {
		if yOut.Data[i] != yIn.Data[i] {
			t.Fatalf("forward differs at %d: %v vs %v", i, yOut.Data[i], yIn.Data[i])
		}
	}
	gOut := out.Backward(grad)
	gIn := in.Backward(grad.Clone())
	for i := range gOut.Data {
		if gOut.Data[i] != gIn.Data[i] {
			t.Fatalf("backward differs at %d: %v vs %v", i, gOut.Data[i], gIn.Data[i])
		}
	}
}
