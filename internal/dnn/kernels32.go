package dnn

// Float32 inference kernel layer: the serving-path counterpart of
// kernels.go. Training stays float64 (optimizer stability), but the
// batched scorer (score.go) runs the cascade in float32 — halved memory
// traffic, and on amd64 an AVX2/FMA microkernel (kernels32_amd64.s) that
// the scalar float64 path cannot approach.
//
// The float32 GEMM is NN-form: C += A·B with B stored [k][n], so each
// C row is computed as a running vector sum of broadcast(A[i][kc])·B[kc]
// rank-1 updates. Output elements live in vector lanes end to end — no
// horizontal reductions — which is what makes small-model inference
// fast: the epilogue per 16 outputs is two vector add/stores, not a
// per-element shuffle tree. Weight matrices are staged in [k][n] layout
// at scorer build time (for the LSTM, attention, and dense layers that
// is their natural storage order already).
//
// Determinism contract, mirroring kernels.go: every output element
// accumulates its k-terms in strictly ascending k order through a single
// accumulator chain — identical in every register-block shape of the
// assembly kernel. Results are therefore independent of batch size.

import "math"

// f32SIMD selects the assembly microkernel; set by the amd64 init when
// the CPU has AVX2+FMA (kernels32_amd64.go), false elsewhere.
var f32SIMD = false

// GEMM epilogues: plain accumulate, or accumulate + ReLU fused into the
// store (valid only when the call is the sole writer of each output
// element, as in the convolution panels).
const (
	epiAdd = iota
	epiAddRelu
)

// sgemm computes C += A·B over float32 with an optional fused epilogue:
// A m×k (row stride lda), B k×n (ldb), C m×n (ldc). The whole m-row loop
// runs inside the assembly kernel, amortizing the call overhead that
// dominates small-model inference when dispatching one row at a time.
func sgemm(m, n, k int, a []float32, lda int, bm []float32, ldb int, c []float32, ldc int, epi int) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if f32SIMD {
		f32NNBlockFMA(&a[0], lda, &bm[0], ldb, &c[0], ldc, m, n, k, epi)
		return
	}
	sgemmGeneric(m, n, k, a, lda, bm, ldb, c, ldc, epi)
}

// sgemmGeneric is the portable scalar kernel: per output row, a running
// sum of broadcast(a)·B[kc] updates in ascending k order — the same
// per-element schedule as the SIMD path, just not the same rounding
// (FMA fuses; scalar does not).
func sgemmGeneric(m, n, k int, a []float32, lda int, bm []float32, ldb int, c []float32, ldc int, epi int) {
	for i := 0; i < m; i++ {
		ar := a[i*lda : i*lda+k]
		cr := c[i*ldc : i*ldc+n]
		for kc, av := range ar {
			if av == 0 { // sparsity fast path: skip multiplies by untouched weights
				continue
			}
			br := bm[kc*ldb : kc*ldb+n]
			for j, bv := range br {
				cr[j] += av * bv
			}
		}
		if epi == epiAddRelu {
			for j, v := range cr {
				if v < 0 {
					cr[j] = 0
				}
			}
		}
	}
}

// sbiasRows initializes each of the m rows of the packed m×n matrix C to
// the bias vector (length n): the beta=0 preamble of every float32
// bias-affine GEMM. It copies the bias once, then doubles the filled
// prefix, so m rows take log2(m) copies rather than m.
func sbiasRows(m, n int, c []float32, bias []float32) {
	c = c[:m*n]
	for filled := copy(c, bias[:n]); 0 < filled && filled < len(c); {
		filled += copy(c[filled:], c[:filled])
	}
}

// saxpy computes y += alpha·x over equal-length slices.
func saxpy(alpha float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// stransposeRows writes dst = srcᵀ for one row-major rows×cols matrix,
// tiled like transposeRows.
func stransposeRows(dst, src []float32, rows, cols int) {
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

// vsigmoid applies the logistic function in place. Lengths that are
// multiples of 8 take the 8-lane assembly kernel; anything else falls
// back to the scalar expf. The two round differently (the kernel fuses
// with FMA), but the choice depends only on the slice length — fixed by
// model shape — never on batch size, so batched-equals-looped holds.
func vsigmoid(x []float32) {
	if f32SIMD && len(x) >= 8 && len(x)&7 == 0 {
		sigmoidAVX2(&x[0], len(x))
		return
	}
	for i, v := range x {
		x[i] = sigmoidf(v)
	}
}

// vtanh applies tanh in place, with the same dispatch rule as vsigmoid.
func vtanh(x []float32) {
	if f32SIMD && len(x) >= 8 && len(x)&7 == 0 {
		tanhAVX2(&x[0], len(x))
		return
	}
	for i, v := range x {
		x[i] = tanhf(v)
	}
}

// sdot returns x·v over equal-length slices.
func sdot(x, v []float32) float32 {
	_ = v[len(x)-1]
	var s float32
	for i, p := range x {
		s += v[i] * p
	}
	return s
}

// sargmax returns the index of the largest element (first on ties).
func sargmax(row []float32) int {
	best, arg := row[0], 0
	for i, v := range row[1:] {
		if v > best {
			best, arg = v, i+1
		}
	}
	return arg
}

// ---- normalization ----

// normVec is the broadcast pattern the vectorized normalization kernel
// reads: eight mean lanes then eight reciprocal-std lanes, the
// two-channel pattern repeated four times (an octet always starts on an
// even element, so lane parity equals channel parity).
type normVec [16]float32

func makeNormVec(mean, inv [2]float32) normVec {
	var v normVec
	for l := 0; l < 8; l++ {
		v[l] = mean[l&1]
		v[8+l] = inv[l&1]
	}
	return v
}

// snormLog1p writes dst[i] = (log1p(src[i]) - mean[ch])*inv[ch] with
// ch = i&1: the scorer's input normalization. src must start on an even
// channel boundary. On SIMD machines every element goes through the
// 8-lane kernel — the sub-octet tail is re-run through it from a padded
// stack buffer — so results are bitwise independent of how the batch was
// chunked. The scalar fallback is elementwise and trivially so.
func snormLog1p(dst []float32, src []float64, nv *normVec) {
	if len(src) == 0 {
		return
	}
	if f32SIMD {
		n8 := len(src) &^ 7
		if n8 > 0 {
			normLog1pAVX2(&dst[0], &src[0], n8, &nv[0])
		}
		if rem := len(src) - n8; rem > 0 {
			var pad [8]float64
			var out [8]float32
			copy(pad[:], src[n8:])
			normLog1pAVX2(&out[0], &pad[0], 8, &nv[0])
			copy(dst[n8:], out[:rem])
		}
		return
	}
	for i, v := range src {
		dst[i] = (log1pf(float32(v)) - nv[i&7]) * nv[8+(i&7)]
	}
}

// ---- fast float32 transcendentals ----
//
// The gate activations run a few hundred sigmoids/tanhs per window;
// math.Exp at ~15ns each would cost more than an entire conv layer. The
// Cephes-style expf below is exact to ~1 ulp of float32 over the clamped
// range, which keeps the scorer's decisions indistinguishable from the
// float64 graph on the cascade corpus (TestScorerMatchesGraph).

const (
	expf32Log2e  = 1.4426950408889634
	expf32Ln2Hi  = 6.9314575195e-1
	expf32Ln2Lo  = 1.4286067653e-6
	expf32MaxArg = 88.02
	expf32MinArg = -87.33

	// 1.5·2^23: adding it rounds a small float to the nearest integer
	// (ties to even) and leaves that integer in the low mantissa bits.
	expf32Magic     = 12582912.0
	expf32MagicBits = 0x4b400000
)

// expf is e^x in float32 with a degree-5 minimax polynomial on the
// reduced range and exponent reassembly through the float bit pattern.
// Rounding to the nearest octave uses the 1.5·2^23 magic-number trick,
// keeping the hot path branch-free.
func expf(x float32) float32 {
	if x > expf32MaxArg {
		x = expf32MaxArg
	}
	if x < expf32MinArg {
		return 0
	}
	t := x*expf32Log2e + expf32Magic
	n := int32(math.Float32bits(t)) - expf32MagicBits
	rf := t - expf32Magic
	r := x - rf*expf32Ln2Hi
	r -= rf * expf32Ln2Lo
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	p = p*r*r + r + 1
	return p * math.Float32frombits(uint32(n+127)<<23)
}

// sigmoidf is the logistic function over expf.
func sigmoidf(x float32) float32 { return 1 / (1 + expf(-x)) }

// tanhf is tanh over expf: 1 - 2/(e^{2x}+1), with the argument clamp
// folded into expf's own.
func tanhf(x float32) float32 {
	if x > 9 {
		return 1
	}
	if x < -9 {
		return -1
	}
	return 1 - 2/(expf(2*x)+1)
}

// logf is the natural logarithm in float32 (Cephes polynomial over the
// [sqrt(1/2), sqrt(2)) mantissa range). Inputs <= 0 return -inf/NaN like
// math.Log; the scorer only feeds it 1+counter >= 1.
func logf(x float32) float32 {
	if x <= 0 {
		if x == 0 { // -inf, like math.Log
			return float32(math.Inf(-1))
		}
		return float32(math.NaN())
	}
	bits := math.Float32bits(x)
	exp := int32(bits>>23) - 126
	m := math.Float32frombits(bits&0x007fffff | 0x3f000000) // [0.5, 1)
	if m < 0.70710677 {
		m *= 2
		exp--
	}
	z := m - 1
	zz := z * z
	p := float32(7.0376836292e-2)
	p = p*z - 1.1514610310e-1
	p = p*z + 1.1676998740e-1
	p = p*z - 1.2420140846e-1
	p = p*z + 1.4249322787e-1
	p = p*z - 1.6668057665e-1
	p = p*z + 2.0000714765e-1
	p = p*z - 2.4999993993e-1
	p = p*z + 3.3333331174e-1
	y := z * zz * p
	e := float32(exp)
	y += e * -2.12194440e-4
	y -= 0.5 * zz
	y += z
	y += e * 0.693359375
	return y
}

// log1pf is ln(1+x) for x >= 0: the counter-normalization transform in
// float32. Counters are either zero or order-one and larger, so the
// naive form loses nothing that the norm statistics could see.
func log1pf(x float32) float32 {
	if x == 0 { // log1p(0) = 0
		return 0
	}
	return logf(1 + x)
}
