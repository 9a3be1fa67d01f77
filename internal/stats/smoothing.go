// Package stats implements the statistical primitives used by the detection
// schemes: the moving average (MA, Eq. (1); batch and streamed, one
// arithmetic) and the streamed EWMA (Eq. (2)), summary statistics,
// Chebyshev-inequality parameter derivation, and the two-sample
// Kolmogorov-Smirnov test used by the KStest baseline detector.
package stats

import (
	"fmt"
	"math"
)

// MA computes the sliding-window moving average of raw with window size w
// and step dw, per Eq. (1) of the paper: the n-th output is the mean of
// raw[n*dw : n*dw+w], summed from zero in sample order. Windows that would
// run past the end of raw are not emitted. For dw <= w this is MAStream's
// arithmetic, so a batch average and a streamed one agree bit for bit.
func MA(raw []float64, w, dw int) []float64 {
	if w <= 0 || dw <= 0 {
		panic(fmt.Sprintf("stats: MA with non-positive window %d or step %d", w, dw))
	}
	if len(raw) < w {
		return nil
	}
	out := make([]float64, (len(raw)-w)/dw+1)
	for i := range out {
		out[i] = Mean(raw[i*dw : i*dw+w])
	}
	return out
}

// MAStream incrementally computes the MA of two raw sample channels that
// share one cadence: feed one sample of each channel with Push; each time
// a full window is available it emits both channels' averages and then
// slides by the step size. Its k-th average on a channel is MA's k-th on
// that channel's samples, bit for bit.
//
// It keeps no window of samples. A new window opens, at zero, at every
// dw-th sample, and each Push adds its pair to every open window: at most
// ceil(w/dw) running-sum pairs (64 B at the paper's W = 200, dW = 50),
// which the first Push allocates, so opening a stream allocates nothing
// and no later Push allocates. Every window is thus summed from zero in
// sample order — the very additions of MA's per-window re-sum.
type MAStream struct {
	w, dw int
	// untilOpen counts the samples before the next window opens (at 0,
	// on the next Push); untilEmit those before the oldest one is full.
	untilOpen, untilEmit int
	// sums holds the open windows' running sums, oldest first.
	sums []maSum
}

// maSum is one open window's running sum on each channel.
type maSum struct{ a, b float64 }

// NewMAStream returns a streaming moving-average with window w and step
// dw, which may not exceed w: a stream that slides past samples it has
// not yet seen has no window to keep.
func NewMAStream(w, dw int) MAStream {
	if w <= 0 || dw <= 0 {
		panic(fmt.Sprintf("stats: MAStream with non-positive window %d or step %d", w, dw))
	}
	if dw > w {
		panic(fmt.Sprintf("stats: MAStream step %d exceeds window %d", dw, w))
	}
	return MAStream{w: w, dw: dw, untilEmit: w}
}

// Push appends one raw sample of each channel and returns (avgA, avgB,
// true) when a window completes, else (0, 0, false).
func (m *MAStream) Push(a, b float64) (avgA, avgB float64, ok bool) {
	if m.untilOpen == 0 {
		if m.sums == nil {
			m.sums = make([]maSum, 0, (m.w+m.dw-1)/m.dw)
		}
		m.sums = append(m.sums, maSum{})
		m.untilOpen = m.dw
	}
	m.untilOpen--
	sums := m.sums
	for i := range sums {
		sums[i].a += a
		sums[i].b += b
	}
	if m.untilEmit--; m.untilEmit > 0 {
		return 0, 0, false
	}
	// The oldest window is full: emit it and shift the rest down. The
	// next-oldest opened dw samples after it.
	s := sums[0]
	m.sums = sums[:copy(sums, sums[1:])]
	m.untilEmit = m.dw
	return s.a / float64(m.w), s.b / float64(m.w), true
}

// EWMAStream computes the exponentially weighted moving average of a value
// stream with smoothing factor alpha in (0, 1], per Eq. (2) of the paper:
// S_0 = x_0, S_n = (1-alpha)*S_{n-1} + alpha*x_n. alpha == 1 reproduces
// the stream itself.
type EWMAStream struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMAStream returns a streaming EWMA with smoothing factor alpha.
func NewEWMAStream(alpha float64) EWMAStream {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMAStream alpha %v outside (0,1]", alpha))
	}
	return EWMAStream{alpha: alpha}
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
