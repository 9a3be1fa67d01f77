package dnn

import (
	"fmt"
	"math"
	"testing"

	"memdos/internal/sim"
)

func randF32(rng *sim.RNG, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.Normal(0, 1))
	}
	return out
}

// The SIMD block kernel and the portable scalar kernel use the same
// per-element k-schedule but different rounding (FMA fuses, scalar does
// not), so they agree only to rounding; the contract is that each is
// internally deterministic, not that they match each other bit-for-bit.
func TestSgemmBlockSIMDMatchesGeneric(t *testing.T) {
	if !f32SIMD {
		t.Skip("no AVX2/FMA on this machine")
	}
	rng := sim.NewRNG(7)
	for _, m := range []int{1, 2, 3, 5, 8, 17} {
		for _, k := range []int{1, 3, 7, 8, 9, 15, 16, 17, 24, 50} {
			for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 24, 33, 64} {
				a := randF32(rng, m*k)
				bm := randF32(rng, k*n)
				want := make([]float32, m*n)
				got := make([]float32, m*n)
				sgemmGeneric(m, n, k, a, k, bm, n, want, n, epiAdd)
				f32NNBlockFMA(&a[0], k, &bm[0], n, &got[0], n, m, n, k, epiAdd)
				for j := range want {
					diff := math.Abs(float64(want[j] - got[j]))
					scale := math.Max(1, math.Abs(float64(want[j])))
					if diff/scale > 1e-5 {
						t.Fatalf("m=%d k=%d n=%d elem %d: generic %v simd %v", m, k, n, j, want[j], got[j])
					}
				}
			}
		}
	}
}

// Every register-block shape — 4 rows or 1 row by 16 columns, 8, a masked
// remainder, or 8 plus a masked remainder — must produce the same bits
// for the same (A row, B column) pair: a panel call must equal
// per-element 1x1 calls exactly. The 1x1 call lands in the 1-row masked
// body with rem=1; m = 1..9 covers no 4-row panel, one and two, each
// with 0 to 3 single rows after it.
func TestSgemmBlockShapeInvariance(t *testing.T) {
	if !f32SIMD {
		t.Skip("no AVX2/FMA on this machine")
	}
	rng := sim.NewRNG(17)
	for m := 1; m <= 9; m++ {
		for _, k := range []int{5, 8, 19, 61} {
			for _, n := range []int{7, 8, 9, 16, 17, 24, 25, 39} {
				a := randF32(rng, m*k)
				bm := randF32(rng, k*n)
				panel := make([]float32, m*n)
				single := make([]float32, m*n)
				f32NNBlockFMA(&a[0], k, &bm[0], n, &panel[0], n, m, n, k, epiAdd)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						f32NNBlockFMA(&a[i*k], k, &bm[j], n, &single[i*n+j], 1, 1, 1, k, epiAdd)
					}
				}
				for i := range panel {
					if panel[i] != single[i] {
						t.Fatalf("m=%d k=%d n=%d elem %d: panel %v != 1x1 %v", m, k, n, i, panel[i], single[i])
					}
				}
			}
		}
	}
}

// The fused ReLU epilogue must clamp exactly where the plain epilogue
// goes negative and nowhere else.
func TestSgemmEpilogueRelu(t *testing.T) {
	rng := sim.NewRNG(29)
	const m, n, k = 9, 21, 17
	a := randF32(rng, m*k)
	bm := randF32(rng, k*n)
	bias := randF32(rng, n)
	plain := make([]float32, m*n)
	fused := make([]float32, m*n)
	sbiasRows(m, n, plain, bias)
	sbiasRows(m, n, fused, bias)
	sgemm(m, n, k, a, k, bm, n, plain, n, epiAdd)
	sgemm(m, n, k, a, k, bm, n, fused, n, epiAddRelu)
	sawNeg := false
	for i, v := range plain {
		want := v
		if want < 0 {
			want = 0
			sawNeg = true
		}
		if fused[i] != want {
			t.Fatalf("elem %d: plain %v fused %v", i, v, fused[i])
		}
	}
	if !sawNeg {
		t.Fatal("test inputs produced no negative outputs; ReLU not exercised")
	}
}

// The same output element must come out byte-identical whether it was
// computed in a batch-96 call or a batch-1 call: the scorer's
// batched-equals-looped guarantee bottoms out here.
func TestSgemmBatchInvariance(t *testing.T) {
	rng := sim.NewRNG(11)
	const m, n, k = 96, 13, 61
	a := randF32(rng, m*k)
	bm := randF32(rng, k*n)

	ref := make([]float32, m*n)
	sgemm(m, n, k, a, k, bm, n, ref, n, epiAdd)

	// Row-at-a-time, batch of one.
	loop := make([]float32, m*n)
	for i := 0; i < m; i++ {
		sgemm(1, n, k, a[i*k:i*k+k], k, bm, n, loop[i*n:i*n+n], n, epiAdd)
	}
	for i := range ref {
		if ref[i] != loop[i] {
			t.Fatalf("batched vs looped differ at %d: %v vs %v", i, ref[i], loop[i])
		}
	}
}

// The vectorized normalization must be accurate against float64
// log1p and — critically — bitwise independent of how the input was
// chunked: element i of a length-100 call must equal element i of a
// length-25600 call. The padded-tail re-vectorization exists for exactly
// this property.
func TestSnormLog1p(t *testing.T) {
	rng := sim.NewRNG(23)
	nv := makeNormVec([2]float32{1.25, -0.5}, [2]float32{0.75, 1.5})
	const total = 1600
	src := make([]float64, total)
	for i := range src {
		src[i] = math.Floor(rng.Uniform(0, 1e5)) // counter-like values
	}

	full := make([]float32, total)
	snormLog1p(full, src, &nv)

	// Accuracy vs float64 reference.
	for i, v := range src {
		want := (math.Log1p(v) - float64(nv[i&7])) * float64(nv[8+(i&7)])
		diff := math.Abs(float64(full[i]) - want)
		if scale := math.Abs(want); scale > 1 {
			diff /= scale
		}
		if diff > 3e-6 {
			t.Fatalf("elem %d (x=%v): got %v want %v", i, v, full[i], want)
		}
	}

	// Chunk invariance: odd-length pieces force the padded-tail path.
	// Chunks must start on even (channel-aligned) offsets.
	for _, chunk := range []int{2, 4, 10, 100, 738} {
		got := make([]float32, total)
		for lo := 0; lo < total; lo += chunk {
			hi := min(lo+chunk, total)
			snormLog1p(got[lo:hi], src[lo:hi], &nv)
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("chunk=%d elem %d: %v != %v", chunk, i, got[i], full[i])
			}
		}
	}
}

func TestFastTranscendentals(t *testing.T) {
	for x := -30.0; x <= 30.0; x += 0.0137 {
		if e := math.Exp(x); e > 0 {
			rel := math.Abs(float64(expf(float32(x)))-e) / e
			if rel > 3e-6 {
				t.Fatalf("expf(%v): rel err %v", x, rel)
			}
		}
		if d := math.Abs(float64(tanhf(float32(x))) - math.Tanh(x)); d > 3e-6 {
			t.Fatalf("tanhf(%v): abs err %v", x, d)
		}
		if d := math.Abs(float64(sigmoidf(float32(x))) - 1/(1+math.Exp(-x))); d > 3e-6 {
			t.Fatalf("sigmoidf(%v): abs err %v", x, d)
		}
	}
	for x := 0.0; x <= 1e6; x = x*1.7 + 0.013 {
		want := math.Log1p(x)
		rel := math.Abs(float64(log1pf(float32(x))) - want)
		if want > 1 {
			rel /= want
		}
		if rel > 3e-6 {
			t.Fatalf("log1pf(%v): err %v", x, rel)
		}
	}
	if log1pf(0) != 0 {
		t.Fatalf("log1pf(0) = %v", log1pf(0))
	}
}

func BenchmarkSgemmBlock(b *testing.B) {
	rng := sim.NewRNG(3)
	for _, sz := range []struct{ m, n, k int }{{1, 24, 60}, {42, 8, 40}, {256, 32, 50}, {256, 64, 16}, {42, 12, 18}, {46, 24, 60}, {48, 12, 72}} {
		b.Run(fmt.Sprintf("m%dn%dk%d", sz.m, sz.n, sz.k), func(b *testing.B) {
			a := randF32(rng, sz.m*sz.k)
			bm := randF32(rng, sz.k*sz.n)
			c := make([]float32, sz.m*sz.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sgemm(sz.m, sz.n, sz.k, a, sz.k, bm, sz.n, c, sz.n, epiAdd)
			}
			b.ReportMetric(float64(sz.m*sz.n*sz.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}
