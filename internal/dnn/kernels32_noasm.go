//go:build !amd64

package dnn

// Non-amd64 builds never set f32SIMD, so these stubs are unreachable;
// they exist only to satisfy the linker.

func f32NNBlockFMA(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, m, n, k, epi int) {
	panic("dnn: f32NNBlockFMA called without SIMD support")
}

func normLog1pAVX2(dst *float32, src *float64, n int, nv *float32) {
	panic("dnn: normLog1pAVX2 called without SIMD support")
}

func sigmoidAVX2(x *float32, n int) {
	panic("dnn: sigmoidAVX2 called without SIMD support")
}

func tanhAVX2(x *float32, n int) {
	panic("dnn: tanhAVX2 called without SIMD support")
}

var normConsts [17 * 8]float32
