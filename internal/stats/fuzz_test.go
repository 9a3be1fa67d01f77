package stats

import (
	"math"
	"testing"

	"memdos/internal/sim"
)

// FuzzKSTest hammers the KS test with arbitrary sample shapes: it must
// never panic, and its outputs must stay within their mathematical ranges.
func FuzzKSTest(f *testing.F) {
	f.Add(uint64(1), 10, 20, 1.5, 0.0)
	f.Add(uint64(2), 100, 100, 0.0, 5.0)
	f.Add(uint64(3), 1, 1, -3.0, 3.0)
	f.Fuzz(func(t *testing.T, seed uint64, n1, n2 int, shift, scale float64) {
		if n1 <= 0 || n2 <= 0 || n1 > 500 || n2 > 500 {
			t.Skip()
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Skip()
		}
		r := newFuzzRNG(seed)
		a := make([]float64, n1)
		b := make([]float64, n2)
		for i := range a {
			a[i] = r.Normal(0, 1)
		}
		for i := range b {
			b[i] = r.Normal(shift, 1+math.Abs(scale))
		}
		res, err := KSTest(a, b, 0.05)
		if err != nil {
			t.Fatalf("KSTest error on valid input: %v", err)
		}
		if res.D < 0 || res.D > 1 {
			t.Fatalf("D = %v outside [0,1]", res.D)
		}
		if res.PValue < 0 || res.PValue > 1 {
			t.Fatalf("p = %v outside [0,1]", res.PValue)
		}
		// Symmetry must hold for any input.
		rev, err := KSTest(b, a, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rev.D-res.D) > 1e-9 {
			t.Fatalf("KS not symmetric: %v vs %v", res.D, rev.D)
		}
	})
}

// FuzzMA checks MA against the direct per-window sum for arbitrary
// window/step shapes, dW > W included: MA re-sums each window from zero,
// so every average must be Float64bits-equal to the direct one.
func FuzzMA(f *testing.F) {
	f.Add(uint64(1), 10, 3, 50)
	f.Add(uint64(2), 1, 1, 5)
	f.Fuzz(func(t *testing.T, seed uint64, w, dw, n int) {
		if w <= 0 || dw <= 0 || n < 0 || w > 200 || dw > 200 || n > 2000 {
			t.Skip()
		}
		r := newFuzzRNG(seed)
		raw := make([]float64, n)
		for i := range raw {
			raw[i] = r.Normal(0, 100)
		}
		got := MA(raw, w, dw)
		for i, v := range got {
			var sum float64
			for _, x := range raw[i*dw : i*dw+w] {
				sum += x
			}
			if math.Float64bits(v) != math.Float64bits(sum/float64(w)) {
				t.Fatalf("MA[%d] = %v, direct %v", i, v, sum/float64(w))
			}
		}
	})
}

// FuzzMAStreamMatchesReference holds the running-sum MAStream to MA's window
// re-sum on each channel: an emit exactly at every full window and
// Float64bits-equal averages on both channels, for every window shape
// from W = 1 to 256 (dW <= W; MA's dW > W shapes are FuzzMA's)
// and values that mix signs, signed zeros, magnitudes from 1e-300 to
// 1e300, NaN and ±Inf. Each 2-byte pair of script is one sample: a value
// code per channel.
//
// A NaN average must meet a NaN: its payload is not compared. When both
// operands of an add are NaN (math.NaN() meets the Inf-Inf NaN), the
// hardware keeps whichever the compiler made the first operand, and that
// choice moves with register allocation: under -fuzz's coverage
// instrumentation one sum may keep the sample's NaN where a plain build
// keeps the sum's.
func FuzzMAStreamMatchesReference(f *testing.F) {
	f.Add(uint8(199), uint8(49), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(0), uint8(0), []byte{10, 11, 12, 13})
	f.Add(uint8(6), uint8(2), []byte{14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	script := make([]byte, 4000)
	for i := range script {
		script[i] = byte(i * 37 >> 2)
	}
	f.Add(uint8(19), uint8(4), script)
	f.Add(uint8(9), uint8(2), script[:100])
	f.Fuzz(func(t *testing.T, wCode, dwCode uint8, script []byte) {
		w := 1 + int(wCode)
		dw := 1 + int(dwCode)%w
		if len(script) > 4000 {
			script = script[:4000]
		}
		as := make([]float64, len(script)/2)
		bs := make([]float64, len(as))
		for i := range as {
			as[i], bs[i] = maFuzzValue(script[2*i]), maFuzzValue(script[2*i+1])
		}
		wantA, wantB := MA(as, w, dw), MA(bs, w, dw)
		m := NewMAStream(w, dw)
		k := 0
		for i := range as {
			gotA, gotB, ok := m.Push(as[i], bs[i])
			if full := i+1 >= w && (i+1-w)%dw == 0; ok != full {
				t.Fatalf("W=%d dW=%d sample %d: emit %v, window full %v", w, dw, i, ok, full)
			}
			if !ok {
				continue
			}
			if !sameAverage(gotA, wantA[k]) || !sameAverage(gotB, wantB[k]) {
				t.Fatalf("W=%d dW=%d window %d: averages %v, %v; MA %v, %v", w, dw, k, gotA, gotB, wantA[k], wantB[k])
			}
			k++
		}
		if k != len(wantA) {
			t.Fatalf("W=%d dW=%d: %d emits, MA has %d windows", w, dw, k, len(wantA))
		}
	})
}

// sameAverage reports whether got and want have the same bits, or are
// both NaN.
func sameAverage(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// maFuzzValue maps one byte to a sample value: NaN, ±Inf, ±0, or a
// signed mantissa times a power of ten between 1e-300 and 1e300.
func maFuzzValue(c byte) float64 {
	switch c {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	}
	v := float64(1+c%7) * math.Pow10(int(c>>3)%25*25-300)
	if c&1 != 0 {
		v = -v
	}
	return v
}

// newFuzzRNG keeps the fuzz file self-contained.
func newFuzzRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed) }
