package experiments

import (
	"math"
	"slices"
	"testing"

	"memdos/internal/core"
	"memdos/internal/pcm"
)

// TestSDSPSampleHygiene is SDS/P's NaN/±Inf cell of the sample hygiene
// table: one non-finite AccessNum, early in the clean half of a FaceNet
// run or past the attack's start, must leave SDS/P's and the combined
// SDS's decisions where the clean stream puts them. The bad sample poisons
// the MA values whose windows hold it; each W_P window that holds one of
// those is "not periodic" (its spectrum and ACF are NaN), and nothing
// latches past it.
func TestSDSPSampleHygiene(t *testing.T) {
	params := core.DefaultParams()
	prof, err := profileFor("FN", params)
	if err != nil {
		t.Fatal(err)
	}
	detectors := []struct {
		name string
		n    int // decisions on the 600 s stream
		new  func() (core.Detector, error)
	}{
		{"SDS/P", 117, func() (core.Detector, error) { return core.NewSDSP(prof, params) }},
		{"SDS", 1197, func() (core.Detector, error) { return core.NewSDS(prof, params) }},
	}
	replay := func(t *testing.T, newDet func() (core.Detector, error), samples []pcm.Sample) []core.Decision {
		t.Helper()
		det, err := newDet()
		if err != nil {
			t.Fatal(err)
		}
		var out []core.Decision
		for _, s := range samples {
			out = append(out, det.Push(s)...)
		}
		return out
	}
	for _, mode := range []AttackMode{BusLock, Cleansing} {
		r, err := Run(DefaultRunSpec("FN", mode, 2), params, nil)
		if err != nil {
			t.Fatal(err)
		}
		clean := make([]pcm.Sample, r.Access.Len())
		for i := range clean {
			clean[i] = pcm.Sample{Time: r.Access.TimeAt(i), AccessNum: r.Access.Values[i], MissNum: r.Miss.Values[i]}
		}
		for _, d := range detectors {
			want := replay(t, d.new, clean)
			if len(want) != d.n {
				t.Fatalf("%v %s: %d decisions on the clean stream, want %d", mode, d.name, len(want), d.n)
			}
			for _, at := range []int{1000, 20000} {
				for _, bad := range []float64{math.NaN(), math.Inf(1)} {
					dirty := slices.Clone(clean)
					dirty[at].AccessNum = bad
					if got := replay(t, d.new, dirty); !slices.Equal(got, want) {
						t.Errorf("%v %s: AccessNum %v at sample %d changes the decisions", mode, d.name, bad, at)
					}
				}
			}
		}
	}
}
