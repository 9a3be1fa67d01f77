package trace

import (
	"bytes"
	"math"
	"strconv"
	"strings"
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

// WriteCSV is what `memdos trace -out` writes: a "time" header cell and
// the series names, then one row per sample with every number in its
// shortest round-trip form ('g', -1), so each cell parses back to the
// exact float64 it was written from.
func TestCSVRoundTrip(t *testing.T) {
	access := NewSeries("access", 0, 0.1)
	access.Values = []float64{1.5, 2e21, -0.25, 1e-7}
	miss := NewSeries("miss", 0, 0.1)
	miss.Values = []float64{3, 0.1, 0, -4e-300}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, access, miss); err != nil {
		t.Fatal(err)
	}
	const want = "time,access,miss\n" +
		"0,1.5,3\n" +
		"0.1,2e+21,0.1\n" +
		"0.2,-0.25,0\n" +
		"0.30000000000000004,1e-07,-4e-300\n"
	got := buf.String()
	if got != want {
		t.Fatalf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
	rows := strings.Split(strings.TrimSuffix(got, "\n"), "\n")[1:]
	for i, row := range rows {
		cells := strings.Split(row, ",")
		for j, s := range []*Series{access, miss} {
			v, err := strconv.ParseFloat(cells[j+1], 64)
			if err != nil || v != s.Values[i] {
				t.Errorf("row %d %s cell %q parses to %v (%v), want %v", i, s.Name, cells[j+1], v, err, s.Values[i])
			}
		}
	}
	if err := WriteCSV(&buf); err == nil {
		t.Error("WriteCSV with no series succeeded")
	}
}

// A series that runs out before the longest one leaves its cells empty.
func TestCSVUnequalLengths(t *testing.T) {
	a := mkSeries(1, 2, 3)
	b := mkSeries(9)
	b.Name = "y"
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	const want = "time,x,y\n" +
		"0,1,9\n" +
		"0.5,2,\n" +
		"1,3,\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", got, want)
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
