package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func mkSeries(vals ...float64) *Series {
	s := NewSeries("x", 0, 0.5)
	s.Values = vals
	return s
}

func TestTimeAtAndEnd(t *testing.T) {
	s := mkSeries(1, 2, 3, 4)
	if got := s.TimeAt(2); got != 1.0 {
		t.Errorf("TimeAt(2) = %v, want 1.0", got)
	}
	if got := s.End(); got != 2.0 {
		t.Errorf("End = %v, want 2.0", got)
	}
}

func TestSliceSharesStorageAndShiftsStart(t *testing.T) {
	s := mkSeries(1, 2, 3, 4, 5)
	sub := s.Slice(2, 4)
	if sub.Start != 1.0 {
		t.Errorf("sub.Start = %v, want 1.0", sub.Start)
	}
	if sub.Len() != 2 || sub.Values[0] != 3 {
		t.Errorf("sub = %+v", sub.Values)
	}
	sub.Values[0] = 99
	if s.Values[2] != 99 {
		t.Error("Slice should share storage")
	}
}

func TestSlicePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Slice out of range did not panic")
		}
	}()
	mkSeries(1, 2).Slice(0, 3)
}

func TestWindow(t *testing.T) {
	s := mkSeries(1, 2, 3, 4, 5, 6) // times 0,0.5,...,2.5
	w := s.Window(0.5, 2.0)
	if w.Len() != 3 || w.Values[0] != 2 || w.Values[2] != 4 {
		t.Errorf("Window(0.5,2.0) = %v", w.Values)
	}
	// Out-of-range windows clamp.
	if got := s.Window(-10, 100).Len(); got != 6 {
		t.Errorf("clamped window len = %d, want 6", got)
	}
	if got := s.Window(10, 20).Len(); got != 0 {
		t.Errorf("disjoint window len = %d, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := mkSeries(1, 2, 3)
	c := s.Clone()
	c.Values[0] = 42
	if s.Values[0] != 1 {
		t.Error("Clone should not share storage")
	}
}

func TestStats(t *testing.T) {
	s := mkSeries(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Std(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestStatsDegenerate(t *testing.T) {
	var empty Series
	if empty.Mean() != 0 || empty.Std() != 0 {
		t.Error("empty series should have zero mean/std")
	}
	one := mkSeries(7)
	if one.Std() != 0 {
		t.Error("single-sample std should be 0")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	a := NewSeries("access", 0, 0.01)
	b := NewSeries("miss", 0, 0.01)
	for i := 0; i < 50; i++ {
		a.Append(float64(i) * 1.5)
		b.Append(float64(i) * -0.25)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d series", len(got))
	}
	for i := range a.Values {
		if got[0].Values[i] != a.Values[i] || got[1].Values[i] != b.Values[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	if math.Abs(got[0].Interval-0.01) > 1e-12 {
		t.Errorf("interval = %v, want 0.01", got[0].Interval)
	}
}

func TestCSVUnequalLengths(t *testing.T) {
	a := mkSeries(1, 2, 3)
	b := mkSeries(9)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Len() != 3 || got[1].Len() != 1 {
		t.Errorf("lens = %d,%d want 3,1", got[0].Len(), got[1].Len())
	}
}

func TestReadCSVErrors(t *testing.T) {
	for _, bad := range []string{"", "a,b\n1,2\n", "time,x\nzzz,1\n", "time,x\n0,zzz\n"} {
		if _, err := ReadCSV(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", bad)
		}
	}
}

func TestWindowSliceConsistencyProperty(t *testing.T) {
	// Property: Window(t0,t1) values are always a contiguous subsequence.
	check := func(seed int64, n uint8) bool {
		s := NewSeries("p", 0, 0.1)
		for i := 0; i < int(n); i++ {
			s.Append(float64(i))
		}
		t0 := float64(seed%40) / 10
		t1 := t0 + float64(n)/20
		w := s.Window(t0, t1)
		for i := 1; i < w.Len(); i++ {
			if w.Values[i] != w.Values[i-1]+1 {
				return false
			}
		}
		return w.Len() <= s.Len()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSparkline(t *testing.T) {
	s := NewSeries("x", 0, 1)
	for i := 0; i < 100; i++ {
		s.Append(float64(i))
	}
	line := Sparkline(s, 10)
	runes := []rune(line)
	if len(runes) != 10 {
		t.Fatalf("sparkline width = %d, want 10", len(runes))
	}
	// Monotone series: first rune lowest, last highest.
	if runes[0] != '▁' || runes[9] != '█' {
		t.Errorf("sparkline = %q", line)
	}
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("monotone series gave non-monotone sparkline %q", line)
		}
	}
}

func TestSparklineEdgeCases(t *testing.T) {
	if Sparkline(nil, 10) != "" {
		t.Error("nil series should render empty")
	}
	empty := NewSeries("e", 0, 1)
	if Sparkline(empty, 10) != "" {
		t.Error("empty series should render empty")
	}
	flat := mkSeries(5, 5, 5, 5)
	line := []rune(Sparkline(flat, 4))
	if len(line) != 4 {
		t.Fatalf("flat sparkline = %q", string(line))
	}
	for _, r := range line {
		if r != line[0] {
			t.Error("flat series should render uniformly")
		}
	}
	// Width larger than series clamps.
	short := mkSeries(1, 2)
	if got := len([]rune(Sparkline(short, 10))); got != 2 {
		t.Errorf("clamped width = %d, want 2", got)
	}
	if Sparkline(short, 0) != "" {
		t.Error("zero width should render empty")
	}
}
