//go:build amd64

package dnn

import "math"

// AVX2/FMA microkernel bindings. The feature probe follows the full
// OS-support dance: AVX needs OSXSAVE plus XCR0 bits 1|2 (the OS saves
// ymm state across context switches), AVX2 is CPUID leaf 7 EBX bit 5,
// FMA is leaf 1 ECX bit 12. Absent any of those the package falls back
// to the portable scalar kernels, bit-for-bit deterministically — just
// slower.

func init() {
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	const fma = 1 << 12
	if c1&osxsave == 0 || c1&avx == 0 || c1&fma == 0 {
		return
	}
	xlo, _ := xgetbv0()
	if xlo&6 != 6 { // XMM and YMM state enabled by the OS
		return
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	if b7&avx2 == 0 {
		return
	}
	f32SIMD = true
}

// normConsts is the coefficient table normLog1pAVX2 reads: 17 rows of 8
// identical lanes — the nine Cephes logf polynomial coefficients, the
// ln2 reassembly constants, 1.0, and the integer bit patterns for the
// branch-free mantissa/exponent split. Offsets are hard-coded in the
// assembly; keep the order in sync.
var normConsts [17 * 8]float32

func init() {
	rows := [17]float32{
		7.0376836292e-2, // c0 (rows 0-8: poly, Horner order)
		-1.1514610310e-1,
		1.1676998740e-1,
		-1.2420140846e-1,
		1.4249322787e-1,
		-1.6668057665e-1,
		2.0000714765e-1,
		-2.4999993993e-1,
		3.3333331174e-1,
		-2.12194440e-4,                   // row 9: e * ln2 correction (low)
		0.5,                              // row 10
		0.693359375,                      // row 11: e * ln2 (high)
		1.0,                              // row 12
		math.Float32frombits(0x004afb0d), // row 13: bits(1.0) - bits(sqrt2/2)
		math.Float32frombits(0x007fffff), // row 14: mantissa mask
		math.Float32frombits(127),        // row 15: exponent bias (int lanes)
		math.Float32frombits(0x3f3504f3), // row 16: bits(sqrt2/2)
	}
	for r, v := range rows {
		for l := 0; l < 8; l++ {
			normConsts[r*8+l] = v
		}
	}
}

// expConsts is the coefficient table the expf-core assembly kernels
// (sigmoidAVX2, tanhAVX2) read: 16 rows of 8 identical lanes. Offsets
// are hard-coded in the assembly; keep the order in sync.
var expConsts [16 * 8]float32

func init() {
	rows := [16]float32{
		expf32Log2e,     // row 0
		expf32Magic,     // row 1: 1.5*2^23 rounding constant
		expf32Ln2Hi,     // row 2
		expf32Ln2Lo,     // row 3
		1.9875691500e-4, // rows 4-9: poly, Horner order
		1.3981999507e-3,
		8.3334519073e-3,
		4.1665795894e-2,
		1.6666665459e-1,
		5.0000001201e-1,
		1.0,          // row 10
		expf32MaxArg, // row 11
		expf32MinArg, // row 12
		math.Float32frombits(expf32MagicBits - 127), // row 13: magic bits minus exponent bias
		2.0,                           // row 14
		math.Float32frombits(1 << 31), // row 15: sign mask
	}
	for r, v := range rows {
		for l := 0; l < 8; l++ {
			expConsts[r*8+l] = v
		}
	}
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// f32NNBlockFMA computes C[i][j] += A[i]·B[·][j] for i in [0,m), j in
// [0,n), with B stored [k][n] and ldb its row stride. Register-blocked
// four A rows by sixteen B columns, leftover rows one at a time; epi != 0
// fuses ReLU into the store.
// Every output element accumulates in strictly ascending k order through
// a single FMA chain in every block shape, so results are byte-identical
// to any other call shape that reaches the same (A row, B) pair: the
// batched-equals-looped guarantee of the scorer.
//
//go:noescape
func f32NNBlockFMA(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, m, n, k, epi int)

// normLog1pAVX2 writes dst[i] = (log1p(float32(src[i])) - nv[i&7]) *
// nv[8+(i&7)] for i in [0,n); n must be a positive multiple of 8.
//
//go:noescape
func normLog1pAVX2(dst *float32, src *float64, n int, nv *float32)

// sigmoidAVX2 replaces x[i] with 1/(1+exp(-x[i])) for i in [0,n);
// n must be a positive multiple of 8.
//
//go:noescape
func sigmoidAVX2(x *float32, n int)

// tanhAVX2 replaces x[i] with tanh(x[i]) for i in [0,n); n must be a
// positive multiple of 8.
//
//go:noescape
func tanhAVX2(x *float32, n int)
