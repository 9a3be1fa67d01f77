// Package period implements periodicity detection for counter time series:
// a discrete Fourier transform (radix-2 Cooley-Tukey with a Bluestein
// fallback for arbitrary lengths), the autocorrelation function, and the
// combined DFT-ACF period estimator of Vlachos et al. (SDM'05) that SDS/P
// uses to track the period of periodic applications.
//
// Everything a transform needs that depends on its length alone — the
// bit-reversal swaps, the twiddles, Bluestein's chirp and the transform
// of its chirp filter — is computed once per length into an immutable
// plan (planFor) that every later call shares. SDS/P transforms the same
// window length W_P at every evaluation, so it pays for its plan once.
// A plan performs exactly the arithmetic of the plan-free transform, in
// the same order, so results are bit-identical to building everything
// per call (TestPlansMatchReferenceBits).
package period

import (
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// FFT computes the discrete Fourier transform of x. The input is not
// modified. Arbitrary lengths are supported: powers of two use radix-2
// Cooley-Tukey, other lengths use Bluestein's chirp-z algorithm.
func FFT(x []complex128) []complex128 {
	return transform(x, false)
}

// IFFT computes the inverse discrete Fourier transform of x, including the
// 1/n normalization.
func IFFT(x []complex128) []complex128 {
	out := transform(x, true)
	scale := complex(1/float64(len(x)), 0)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// FFTReal transforms a real-valued series.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// transform runs x through its length's plan into a new slice.
func transform(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	p := planFor(n, inverse)
	sc := p.get()
	defer p.put(sc)
	copy(sc.work, x)
	p.run(sc.work)
	return append([]complex128(nil), sc.work[:n]...)
}

// Periodogram returns the power spectrum |X_k|^2 / n of the mean-removed
// series for k = 0..n/2 (inclusive). Removing the mean suppresses the DC
// component so dominant-frequency searches are not swamped by the offset.
func Periodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	p := planFor(n, false)
	sc := p.get()
	defer p.put(sc)
	return p.periodogram(make([]float64, n/2+1), x, sc.work)
}

// periodogram writes Periodogram(x) into out (n/2+1 long), transforming
// in work (the plan's padded length).
func (p *plan) periodogram(out, x []float64, work []complex128) []float64 {
	n := len(x)
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	for i, v := range x {
		work[i] = complex(v-mean, 0)
	}
	p.run(work)
	for k := range out {
		m := cmplx.Abs(work[k])
		out[k] = m * m / float64(n)
	}
	return out
}

// radix2 is the schedule of an in-place radix-2 transform of one
// power-of-two length: the bit-reversal swaps and, per direction, every
// stage's twiddles, stages concatenated shortest first.
type radix2 struct {
	swaps []int32 // index pairs, flattened
	tw    [2][]complex128
}

// newRadix2 builds the schedule for length m. Each stage's twiddles come
// from the w *= wl recurrence the transform used to run inline, so they
// are the same bits.
func newRadix2(m int) *radix2 {
	r := new(radix2)
	for i, j := 1, 0; i < m; i++ {
		bit := m >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			r.swaps = append(r.swaps, int32(i), int32(j))
		}
	}
	for dir, inverse := range []bool{false, true} {
		tw := make([]complex128, 0, max(m-1, 0))
		for length := 2; length <= m; length <<= 1 {
			ang := 2 * math.Pi / float64(length)
			if !inverse {
				ang = -ang
			}
			wl := cmplx.Rect(1, ang)
			w := complex(1, 0)
			for j := 0; j < length>>1; j++ {
				tw = append(tw, w)
				w *= wl
			}
		}
		r.tw[dir] = tw
	}
	return r
}

// run transforms a (the schedule's length) in place; inverse selects the
// conjugate (un-normalized inverse) transform.
func (r *radix2) run(a []complex128, inverse bool) {
	for k := 0; k < len(r.swaps); k += 2 {
		i, j := r.swaps[k], r.swaps[k+1]
		a[i], a[j] = a[j], a[i]
	}
	tw := r.tw[0]
	if inverse {
		tw = r.tw[1]
	}
	n := len(a)
	for half := 1; half < n; half <<= 1 {
		w := tw[:half]
		tw = tw[half:]
		for i := 0; i < n; i += 2 * half {
			lo, hi := a[i:i+half], a[i+half:i+2*half]
			for j, wj := range w {
				u := lo[j]
				v := hi[j] * wj
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
}

// plan is the immutable schedule of one transform length and direction.
// A power of two is its radix-2 schedule alone; any other length n is a
// Bluestein chirp-z transform, a convolution run at the power of two
// m >= 2n-1.
type plan struct {
	n       int
	inverse bool
	r       *radix2 // length m
	m       int
	// Bluestein only: chirp[k] = exp(±iπk²/n), the forward transform of
	// the conjugate chirp filter, and the convolution's 1/m.
	chirp  []complex128
	filter []complex128
	scale  complex128
	// pool recycles scratch sized for this plan, so a detector that
	// estimates every few samples holds none between calls.
	pool sync.Pool
}

// scratch is one call's working memory for a plan of length n.
type scratch struct {
	work     []complex128 // m
	spec     []float64    // n/2+1
	acf      []float64    // n
	centered []float64    // n
	cands    []candidate
}

func newPlan(n int, inverse bool) *plan {
	p := &plan{n: n, inverse: inverse, m: n}
	if n&(n-1) == 0 {
		p.r = radix2For(n)
	} else {
		m := 1
		for m < 2*n-1 {
			m <<= 1
		}
		p.m = m
		p.r = radix2For(m)
		sign := -1.0
		if inverse {
			sign = 1.0
		}
		p.chirp = make([]complex128, n)
		for k := 0; k < n; k++ {
			// k*k may overflow for huge n in theory; series here are small.
			ang := sign * math.Pi * float64(k) * float64(k) / float64(n)
			p.chirp[k] = cmplx.Rect(1, ang)
		}
		p.filter = make([]complex128, m)
		for k := 0; k < n; k++ {
			p.filter[k] = cmplx.Conj(p.chirp[k])
		}
		for k := 1; k < n; k++ {
			p.filter[m-k] = cmplx.Conj(p.chirp[k])
		}
		p.r.run(p.filter, false)
		p.scale = complex(1/float64(m), 0)
	}
	p.pool.New = func() any {
		return &scratch{
			work:     make([]complex128, p.m),
			spec:     make([]float64, n/2+1),
			acf:      make([]float64, n),
			centered: make([]float64, n),
		}
	}
	return p
}

func (p *plan) get() *scratch   { return p.pool.Get().(*scratch) }
func (p *plan) put(sc *scratch) { p.pool.Put(sc) }

// run transforms the first n entries of work (the plan's length m) in
// place. The Bluestein path is the chirp-z transform step for step: the
// chirped input, zero-padded to m, is convolved with the chirp filter
// through two radix-2 transforms and chirped again.
func (p *plan) run(work []complex128) {
	if p.chirp == nil {
		p.r.run(work, p.inverse)
		return
	}
	n := p.n
	for k := 0; k < n; k++ {
		work[k] *= p.chirp[k]
	}
	clear(work[n:])
	p.r.run(work, false)
	for i := range work {
		work[i] *= p.filter[i]
	}
	p.r.run(work, true)
	for k := 0; k < n; k++ {
		work[k] = work[k] * p.scale * p.chirp[k]
	}
}

// maxPlans bounds the plan cache. SDS/P needs one length per periodic
// profile; past the bound a length is planned per call, as it was before
// plans were cached.
const maxPlans = 64

var (
	plans     sync.Map // n<<1 | inverse -> *plan
	planCount atomic.Int32
	radix2s   sync.Map // power-of-two length -> *radix2
)

// planFor returns the shared plan for length n and direction.
func planFor(n int, inverse bool) *plan {
	key := n << 1
	if inverse {
		key |= 1
	}
	if p, ok := plans.Load(key); ok {
		return p.(*plan)
	}
	p := newPlan(n, inverse)
	if planCount.Load() >= maxPlans {
		return p
	}
	got, loaded := plans.LoadOrStore(key, p)
	if !loaded {
		planCount.Add(1)
	}
	return got.(*plan)
}

// radix2For returns the shared radix-2 schedule for power-of-two m.
func radix2For(m int) *radix2 {
	if r, ok := radix2s.Load(m); ok {
		return r.(*radix2)
	}
	r, _ := radix2s.LoadOrStore(m, newRadix2(m))
	return r.(*radix2)
}
