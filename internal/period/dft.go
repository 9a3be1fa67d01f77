// Package period implements periodicity detection for counter time series:
// the periodogram of a real series, the autocorrelation function, and the
// combined DFT-ACF period estimator of Vlachos et al. (SDM'05) that SDS/P
// uses to track the period of periodic applications.
//
// The periodogram is a direct DFT sum over the n/2+1 bins a real series
// has. SDS/P's windows are W_P = 2·period MA values (28 for PCA, 34 for
// FaceNet): at those lengths the direct sum costs less than a fast
// transform padded to a power of two.
package period

import (
	"math"
	"sync"
)

// scratch is one call's working memory. Its slices grow to the longest
// series seen and are resliced per call.
type scratch struct {
	spec     []float64 // n/2+1
	acf      []float64 // n
	centered []float64 // n
	cos, sin []float64 // n: the twiddles cos, sin(2πj/n)
	cands    []candidate
}

// scratchPool recycles scratch, so a detector that estimates every few
// samples allocates nothing and holds none between calls.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns pooled scratch sized for a series of length n.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.spec = resize(sc.spec, n/2+1)
	sc.acf = resize(sc.acf, n)
	sc.centered = resize(sc.centered, n)
	sc.cos = resize(sc.cos, n)
	sc.sin = resize(sc.sin, n)
	return sc
}

// resize returns s with length n, reallocating only when it is too short.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Periodogram returns the power spectrum |X_k|^2 / n of the mean-removed
// series for k = 0..n/2 (inclusive). Removing the mean suppresses the DC
// component so dominant-frequency searches are not swamped by the offset.
func Periodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	sc := getScratch(n)
	defer scratchPool.Put(sc)
	return periodogram(make([]float64, n/2+1), x, sc)
}

// periodogram writes Periodogram(x) into out (len(x)/2+1 long), using
// sc's centered series and twiddles.
func periodogram(out, x []float64, sc *scratch) []float64 {
	n := len(x)
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	c := sc.centered
	for i, v := range x {
		c[i] = v - mean
	}
	for j := range n {
		sc.sin[j], sc.cos[j] = math.Sincos(2 * math.Pi * float64(j) / float64(n))
	}
	for k := range out {
		// x is real, so the terms at t and n-t share a cosine and negate
		// a sine; j walks k·t mod n.
		re, im := c[0], 0.0
		j := 0
		for t := 1; 2*t < n; t++ {
			j += k
			if j >= n {
				j -= n
			}
			re += (c[t] + c[n-t]) * sc.cos[j]
			im -= (c[t] - c[n-t]) * sc.sin[j]
		}
		if n%2 == 0 { // t = n/2 pairs with itself: e^{-iπk} = ±1
			if k%2 == 0 {
				re += c[n/2]
			} else {
				re -= c[n/2]
			}
		}
		out[k] = (re*re + im*im) / float64(n)
	}
	return out
}
