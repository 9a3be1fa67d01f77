package period

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"memdos/internal/sim"
)

// TestEstimatePinned pins the estimator's verdicts bit for bit: an FNV-64
// digest of Estimate's Periodic, Period and Correlation bits and of
// EstimateDFTOnly's Period, over every length 1-300 for 20 seeds, on a
// noisy sinusoid (periods 4-23, like an MA window of a periodic
// application) and on pure noise. Power is left out: it is the spectrum's
// own rounding, and no caller reads it. A change to how the spectrum is
// computed must leave the digest where it is. The digest is amd64's:
// elsewhere the compiler may fuse a multiply-add, which rounds
// differently.
func TestEstimatePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("estimate digest is pinned on amd64, not %s", runtime.GOARCH)
	}
	const want = 0x66f5b91e7a835b43
	est := NewEstimator(DefaultEstimatorConfig())
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	periodic := 0
	for n := 1; n <= 300; n++ {
		for seed := uint64(1); seed <= 20; seed++ {
			r := sim.NewRNG(seed*1000 + uint64(n))
			tone := make([]float64, n)
			noise := make([]float64, n)
			for i := range tone {
				tone[i] = 100 + 20*math.Sin(2*math.Pi*float64(i)/(3+float64(seed))) + r.Normal(0, 5)
			}
			for i := range noise {
				noise[i] = r.Normal(100, 10)
			}
			for _, x := range [][]float64{tone, noise} {
				e := est.Estimate(x)
				if e.Periodic {
					periodic++
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
				put(e.Period)
				put(e.Correlation)
				put(EstimateDFTOnly(x).Period)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("estimate digest %#016x over 12000 series (%d periodic), want %#016x", got, periodic, want)
	}
}
