package stats

import "fmt"

// refMAStream is the package's original streaming moving average, kept as
// the reference MAStream must reproduce bit for bit: it buffers the
// window, re-sums it from zero at every emit and slides by moving the
// w-dw newest samples to the front. One refMAStream runs one channel.
type refMAStream struct {
	w, dw int
	buf   []float64
}

func newRefMAStream(w, dw int) *refMAStream {
	if w <= 0 || dw <= 0 {
		panic(fmt.Sprintf("stats: MAStream with non-positive window %d or step %d", w, dw))
	}
	if dw > w {
		panic(fmt.Sprintf("stats: MAStream step %d exceeds window %d", dw, w))
	}
	return &refMAStream{w: w, dw: dw}
}

func (m *refMAStream) Push(v float64) (float64, bool) {
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
	m.buf = m.buf[:copy(m.buf, m.buf[m.dw:])]
	return sum / float64(m.w), true
}
