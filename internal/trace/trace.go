// Package trace provides the time-series containers shared by the PCM
// monitor, the detectors, and the experiment harness, along with CSV
// encoding for exporting figures.
package trace

import (
	"fmt"
	"math"
)

// Series is a uniformly sampled time series: Values[i] was observed at time
// Start + i*Interval (simulated seconds).
type Series struct {
	Name     string
	Start    float64
	Interval float64
	Values   []float64
}

// NewSeries returns an empty series with the given name and sampling
// interval, starting at time start.
func NewSeries(name string, start, interval float64) *Series {
	if interval <= 0 {
		panic(fmt.Sprintf("trace: non-positive interval %v", interval))
	}
	return &Series{Name: name, Start: start, Interval: interval}
}

// Append adds one sample to the end of the series.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of sample i.
func (s *Series) TimeAt(i int) float64 { return s.Start + float64(i)*s.Interval }

// End returns the timestamp one interval past the final sample, i.e. the
// time the series covers up to. An empty series ends at Start.
func (s *Series) End() float64 { return s.Start + float64(len(s.Values))*s.Interval }

// Slice returns a view of samples [i, j). The returned series shares the
// underlying storage.
func (s *Series) Slice(i, j int) *Series {
	if i < 0 || j > len(s.Values) || i > j {
		panic(fmt.Sprintf("trace: slice bounds [%d,%d) out of range (len %d)", i, j, len(s.Values)))
	}
	return &Series{
		Name:     s.Name,
		Start:    s.TimeAt(i),
		Interval: s.Interval,
		Values:   s.Values[i:j],
	}
}

// Window returns the samples whose timestamps fall in [t0, t1). Both bounds
// are clamped to the series extent.
func (s *Series) Window(t0, t1 float64) *Series {
	i := int(math.Ceil((t0 - s.Start) / s.Interval))
	j := int(math.Ceil((t1 - s.Start) / s.Interval))
	if i < 0 {
		i = 0
	}
	if j < 0 {
		j = 0
	}
	if j > len(s.Values) {
		j = len(s.Values)
	}
	if i > j {
		i = j
	}
	return s.Slice(i, j)
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	c := *s
	c.Values = append([]float64(nil), s.Values...)
	return &c
}

// Mean returns the arithmetic mean of the series, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Std returns the population standard deviation, or 0 for series shorter
// than two samples.
func (s *Series) Std() float64 {
	n := len(s.Values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.Values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the minimum value; it panics on an empty series.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		panic("trace: Min of empty series")
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum value; it panics on an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		panic("trace: Max of empty series")
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
