package period

// ACF returns the normalized autocorrelation function of x for lags
// 0..maxLag. The series is mean-centered and the result is normalized so
// ACF[0] == 1 (unless the series has zero variance, in which case all lags
// are 0 except lag 0 which is 1 for non-empty input).
func ACF(x []float64, maxLag int) []float64 {
	n := len(x)
	if n == 0 || maxLag < 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	return acfInto(make([]float64, maxLag+1), make([]float64, n), x)
}

// acfInto writes the ACF of x for lags 0..len(out)-1 (at most len(x)-1)
// into out, using centered (len(x) long) as scratch.
func acfInto(out, centered, x []float64) []float64 {
	n, maxLag := len(x), len(out)-1
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var c0 float64
	for i, v := range x {
		centered[i] = v - mean
		c0 += centered[i] * centered[i]
	}
	out[0] = 1
	if c0 == 0 { // constant window: zero variance
		clear(out[1:])
		return out
	}
	// For the short windows SDS/P uses (a few hundred points), the direct
	// O(n*maxLag) computation beats FFT-based convolution in practice and
	// avoids padding bookkeeping.
	for lag := 1; lag <= maxLag; lag++ {
		var c float64
		for i := 0; i+lag < n; i++ {
			c += centered[i] * centered[i+lag]
		}
		out[lag] = c / c0
	}
	return out
}

// isACFPeak reports whether lag sits on a local maximum of acf (a "hill" in
// Vlachos et al.'s terminology), searching a small neighbourhood so that
// plateau-shaped peaks are still accepted.
func isACFPeak(acf []float64, lag int) bool {
	if lag <= 0 || lag >= len(acf)-1 {
		return false
	}
	l, r := lag-1, lag+1
	// Walk off equal-valued plateaus; a plateau is bit-identical stored
	// values, not approximately equal ones.
	for l > 0 && acf[l] == acf[lag] {
		l--
	}
	for r < len(acf)-1 && acf[r] == acf[lag] {
		r++
	}
	return acf[l] < acf[lag] && acf[r] < acf[lag]
}
