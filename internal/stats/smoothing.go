// Package stats implements the statistical primitives used by the detection
// schemes: sliding-window moving averages (MA), exponentially weighted
// moving averages (EWMA), summary statistics, Chebyshev-inequality
// parameter derivation, and the two-sample Kolmogorov-Smirnov test used by
// the KStest baseline detector.
package stats

import (
	"fmt"
	"math"
)

// MA computes the sliding-window moving average of raw with window size w
// and step dw, per Eq. (1) of the paper: the n-th output is the mean of
// raw[n*dw : n*dw+w]. Windows that would run past the end of raw are not
// emitted.
func MA(raw []float64, w, dw int) []float64 {
	if w <= 0 || dw <= 0 {
		panic(fmt.Sprintf("stats: MA with non-positive window %d or step %d", w, dw))
	}
	if len(raw) < w {
		return nil
	}
	n := (len(raw)-w)/dw + 1
	out := make([]float64, n)
	// Initial window sum, then slide by dw using incremental updates.
	var sum float64
	for _, v := range raw[:w] {
		sum += v
	}
	out[0] = sum / float64(w)
	for i := 1; i < n; i++ {
		lo := (i - 1) * dw
		for j := lo; j < lo+dw; j++ {
			sum -= raw[j]
		}
		for j := lo + w; j < lo+w+dw; j++ {
			sum += raw[j]
		}
		out[i] = sum / float64(w)
	}
	return out
}

// EWMA computes the exponentially weighted moving average of xs with
// smoothing factor alpha in (0, 1], per Eq. (2) of the paper:
// S_0 = x_0, S_n = (1-alpha)*S_{n-1} + alpha*x_n.
// alpha == 1 reproduces xs itself.
func EWMA(xs []float64, alpha float64) []float64 {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v outside (0,1]", alpha))
	}
	if len(xs) == 0 {
		return nil
	}
	out := make([]float64, len(xs))
	out[0] = xs[0]
	for i := 1; i < len(xs); i++ {
		out[i] = (1-alpha)*out[i-1] + alpha*xs[i]
	}
	return out
}

// MAStream incrementally computes the MA of a raw sample stream. It is the
// online counterpart of MA: feed raw samples with Push; each time a full
// window is available it emits one averaged value and then slides by the
// step size. The window lives in one buffer of capacity w that the first
// Push allocates (opening a session stays as cheap as it was; a fleet
// opens thousands of streams at once), so no later Push allocates.
type MAStream struct {
	w, dw int
	buf   []float64
}

// NewMAStream returns a streaming moving-average with window w and step
// dw, which may not exceed w: a stream that slides past samples it has
// not yet seen has no window to keep.
func NewMAStream(w, dw int) *MAStream {
	if w <= 0 || dw <= 0 {
		panic(fmt.Sprintf("stats: MAStream with non-positive window %d or step %d", w, dw))
	}
	if dw > w {
		panic(fmt.Sprintf("stats: MAStream step %d exceeds window %d", dw, w))
	}
	return &MAStream{w: w, dw: dw}
}

// Push appends one raw sample and returns (avg, true) when a new window
// average becomes available, else (0, false).
func (m *MAStream) Push(v float64) (float64, bool) {
	if m.buf == nil {
		m.buf = make([]float64, 0, m.w)
	}
	m.buf = append(m.buf, v)
	if len(m.buf) < m.w {
		return 0, false
	}
	var sum float64
	for _, x := range m.buf {
		sum += x
	}
	// Slide: move the w-dw newest samples to the front of the buffer so
	// the next window starts dw later. (Re-slicing past the dw oldest
	// instead would walk the slice off its array and make append
	// reallocate and copy the window every few emits.)
	m.buf = m.buf[:copy(m.buf, m.buf[m.dw:])]
	return sum / float64(m.w), true
}

// EWMAStream incrementally computes the EWMA of a value stream.
type EWMAStream struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMAStream returns a streaming EWMA with smoothing factor alpha.
func NewEWMAStream(alpha float64) *EWMAStream {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMAStream alpha %v outside (0,1]", alpha))
	}
	return &EWMAStream{alpha: alpha}
}

// Push folds one value into the stream and returns the updated EWMA.
func (e *EWMAStream) Push(v float64) float64 {
	if !e.init {
		e.value = v
		e.init = true
		return v
	}
	e.value = (1-e.alpha)*e.value + e.alpha*v
	return e.value
}

// Value returns the current EWMA (0 before the first Push).
func (e *EWMAStream) Value() float64 { return e.value }

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// MeanStd returns both the mean and population standard deviation in one
// pass over xs.
func MeanStd(xs []float64) (mean, std float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}
