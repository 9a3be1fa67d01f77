package dnn

// Kernel layer: cache-blocked GEMM/GEMV and fused vector primitives over
// float64 slices, shared by every layer's forward and backward pass. All
// matrices are dense row-major with an explicit leading dimension (row
// stride), so strided views — a time step sliced out of a [B][T][C]
// tensor, a transposed weight block — feed the kernels without copies.
//
// Determinism contract: for a fixed kernel, every output element
// accumulates its k-terms in ascending k order, and the schedule depends
// only on the shape, so a row computes the same bits whatever batch it
// arrives in. Every kernel runs on the calling goroutine.

import "math"

// Blocking parameters. C is held in mc-row slabs so one slab (mc×n
// float64) stays cache-resident across a K-block, while each K-block's
// kc-row B-panel is re-streamed once per slab instead of once per row.
const (
	gemmMC = 64  // output rows per C slab
	gemmKC = 256 // K depth per B panel
)

// gemmNN computes C += A·B with A m×k (row stride lda), B k×n (ldb) and
// C m×n (ldc), blocked over K and over C rows.
func gemmNN(m, n, k int, a []float64, lda int, bm []float64, ldb int, c []float64, ldc int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	for kk := 0; kk < k; kk += gemmKC {
		kHi := min(kk+gemmKC, k)
		for ii := 0; ii < m; ii += gemmMC {
			iHi := min(ii+gemmMC, m)
			for i := ii; i < iHi; i++ {
				ar := a[i*lda : i*lda+k]
				cr := c[i*ldc : i*ldc+n]
				// Four k-steps per pass quarter the C load/store traffic;
				// each element still accumulates in ascending k order, and
				// the unroll phase depends only on kk (a gemmKC multiple),
				// never on the row.
				kc := kk
				for ; kc+3 < kHi; kc += 4 {
					a0, a1, a2, a3 := ar[kc], ar[kc+1], ar[kc+2], ar[kc+3]
					b0 := bm[kc*ldb : kc*ldb+n]
					b1 := bm[(kc+1)*ldb : (kc+1)*ldb+n]
					b2 := bm[(kc+2)*ldb : (kc+2)*ldb+n]
					b3 := bm[(kc+3)*ldb : (kc+3)*ldb+n]
					for j, bv := range b0 {
						cr[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; kc < kHi; kc++ {
					aik := ar[kc]
					br := bm[kc*ldb : kc*ldb+n]
					for j, bv := range br {
						cr[j] += aik * bv
					}
				}
			}
		}
	}
}

// gemmTN computes C += Aᵀ·B with A k×m (lda), B k×n (ldb), C m×n (ldc):
// the dW kernel (activationsᵀ · output gradients). K runs outermost so A
// and B stream exactly once while the small C block stays resident.
func gemmTN(m, n, k int, a []float64, lda int, bm []float64, ldb int, c []float64, ldc int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	// Four k-steps per pass as in gemmNN: the unroll phase depends only
	// on k, so every row performs identical per-element arithmetic.
	kc := 0
	for ; kc+3 < k; kc += 4 {
		a0, a1 := a[kc*lda:], a[(kc+1)*lda:]
		a2, a3 := a[(kc+2)*lda:], a[(kc+3)*lda:]
		b0 := bm[kc*ldb : kc*ldb+n]
		b1 := bm[(kc+1)*ldb : (kc+1)*ldb+n]
		b2 := bm[(kc+2)*ldb : (kc+2)*ldb+n]
		b3 := bm[(kc+3)*ldb : (kc+3)*ldb+n]
		for i := 0; i < m; i++ {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
			cr := c[i*ldc : i*ldc+n]
			for j, bv := range b0 {
				cr[j] += av0*bv + av1*b1[j] + av2*b2[j] + av3*b3[j]
			}
		}
	}
	for ; kc < k; kc++ {
		arow := a[kc*lda:]
		br := bm[kc*ldb : kc*ldb+n]
		for i := 0; i < m; i++ {
			av := arow[i]
			cr := c[i*ldc : i*ldc+n]
			for j, bv := range br {
				cr[j] += av * bv
			}
		}
	}
}

// gemmNT computes C += A·Bᵀ with A m×k (lda), B n×k (ldb), C m×n (ldc):
// the dX kernel (output gradients · weightsᵀ). Each C element is one dot
// product of contiguous rows.
func gemmNT(m, n, k int, a []float64, lda int, bm []float64, ldb int, c []float64, ldc int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	// Column pairs share the A-row loads. Pairing depends only on n, and
	// each column's accumulation pattern matches dotVec exactly, so a
	// column computes the same bits in the paired and tail paths.
	for i := 0; i < m; i++ {
		ar := a[i*lda : i*lda+k]
		cr := c[i*ldc : i*ldc+n]
		j := 0
		for ; j+1 < n; j += 2 {
			s, t := dotVec2(ar, bm[j*ldb:j*ldb+k], bm[(j+1)*ldb:(j+1)*ldb+k])
			cr[j] += s
			cr[j+1] += t
		}
		if j < n {
			cr[j] += dotVec(ar, bm[j*ldb:j*ldb+k])
		}
	}
}

// gemv computes y += A·x with A m×n (lda), x length n, y length m.
func gemv(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		y[i] += dotVec(a[i*lda:i*lda+n], x)
	}
}

// gemvT computes y += Aᵀ·x with A m×n (lda), x length m, y length n.
func gemvT(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		axpy(x[i], a[i*lda:i*lda+n], y)
	}
}

// axpy computes y += alpha·x over equal-length slices.
func axpy(alpha float64, x, y []float64) {
	_ = y[len(x)-1]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// dotVec returns x·y over equal-length slices, with four independent
// accumulators to break the FP-add latency chain. The accumulation
// pattern is a pure function of the length, so every caller sums a given
// pair of slices identically.
func dotVec(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dotVec2 returns (x·y, x·z) in one pass, each accumulated with exactly
// dotVec's pattern, sharing the x loads.
func dotVec2(x, y, z []float64) (float64, float64) {
	y = y[:len(x)]
	z = z[:len(x)]
	var s0, s1, s2, s3 float64
	var t0, t1, t2, t3 float64
	i := 0
	for ; i+3 < len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		s0 += x0 * y[i]
		s1 += x1 * y[i+1]
		s2 += x2 * y[i+2]
		s3 += x3 * y[i+3]
		t0 += x0 * z[i]
		t1 += x1 * z[i+1]
		t2 += x2 * z[i+2]
		t3 += x3 * z[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
		t0 += x[i] * z[i]
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}

// addTo computes dst += src over equal-length slices.
func addTo(dst, src []float64) {
	_ = dst[len(src)-1]
	for i, v := range src {
		dst[i] += v
	}
}

// addBiasRows initializes each of the m rows of C (ldc) to the bias
// vector (length n), the beta=0 preamble of every bias-affine GEMM.
func addBiasRows(m, n int, c []float64, ldc int, bias []float64) {
	for i := 0; i < m; i++ {
		copy(c[i*ldc:i*ldc+n], bias)
	}
}

// colSums computes dst[j] += Σ_i A[i][j] over the m×n matrix A (lda):
// the db kernel (column sums of the output gradient).
func colSums(m, n int, a []float64, lda int, dst []float64) {
	for i := 0; i < m; i++ {
		addTo(dst[:n], a[i*lda:i*lda+n])
	}
}

// tanhRowDot replaces row with tanh(row) element-wise and returns
// tanh(row)·v — the fused add-bias-activation/score kernel of the
// attention layer (row already holds the pre-activations).
func tanhRowDot(row, v []float64) float64 {
	_ = v[len(row)-1]
	var s float64
	for i, p := range row {
		t := math.Tanh(p)
		row[i] = t
		s += v[i] * t
	}
	return s
}

// transposeRows writes dst = srcᵀ for one row-major rows×cols matrix,
// tiled so both the strided reads and the sequential writes stay within a
// cache-line-sized window.
func transposeRows(dst, src []float64, rows, cols int) {
	const tile = 16
	for i0 := 0; i0 < rows; i0 += tile {
		iHi := min(i0+tile, rows)
		for j0 := 0; j0 < cols; j0 += tile {
			jHi := min(j0+tile, cols)
			for i := i0; i < iHi; i++ {
				for j := j0; j < jHi; j++ {
					dst[j*rows+i] = src[i*cols+j]
				}
			}
		}
	}
}
