package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"memdos/internal/dnn"
	"memdos/internal/pcm"
	"memdos/internal/sim"
)

// dnnTestCascade is an untrained compact cascade whose normalization is
// fitted to the samples, so its verdicts move with the stream.
func dnnTestCascade(t *testing.T, samples []pcm.Sample) *dnn.Cascade {
	t.Helper()
	c, err := dnn.NewCascade(2, dnn.CompactLSTMFCNConfig, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = []float64{s.AccessNum, s.MissNum}
	}
	if c.Norm, err = dnn.FitChannelNorm([][][]float64{rows}); err != nil {
		t.Fatal(err)
	}
	return c
}

// dnnVerdict is one decision with the classification behind it.
type dnnVerdict struct {
	Decision
	App, Attack float64
}

func replayDNN(d *DNNDetector, samples []pcm.Sample) []dnnVerdict {
	var out []dnnVerdict
	for _, s := range samples {
		for _, dec := range d.Push(s) {
			snap := d.StateSnapshot()
			out = append(out, dnnVerdict{dec, snap["last_app"], snap["last_attack_class"]})
		}
	}
	return out
}

// Detectors built from one cascade share its weights and nothing else:
// pushed from parallel goroutines each reproduces a serial detector's
// decisions, and -race sees no write to the cascade.
func TestDNNDetectorsShareCascade(t *testing.T) {
	samples := stateSamples(1600)
	p := stateParams()
	p.W, p.DW = 64, 16
	cascade := dnnTestCascade(t, samples)
	build := func() *DNNDetector {
		d, err := NewDNNDetector(cascade, p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := replayDNN(build(), samples)

	const n = 4
	dets := make([]*DNNDetector, n)
	for i := range dets {
		dets[i] = build()
	}
	got := make([][]dnnVerdict, n)
	var wg sync.WaitGroup
	for i, d := range dets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = replayDNN(d, samples)
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("detector %d: concurrent decisions diverge from the serial detector's", i)
		}
	}
}

// Each decision classifies exactly the last W samples: its verdicts equal
// batch-1 ScoreFlat of that window on a separately compiled scorer, the
// first decision lands at sample W and the rest every DW. The strides
// cover windows that carry conv rows (64/16, 200/50) and windows whose
// stride leaves none to carry (DW >= W - 2·halo: 20/10, 21/7, 200/200).
func TestDNNDetectorMatchesScoreFlat(t *testing.T) {
	samples := stateSamples(1600)
	for _, tc := range []struct{ w, dw int }{{20, 10}, {21, 7}, {64, 16}, {200, 50}, {200, 200}} {
		t.Run(fmt.Sprintf("W%d/DW%d", tc.w, tc.dw), func(t *testing.T) {
			p := stateParams()
			p.W, p.DW = tc.w, tc.dw
			cascade := dnnTestCascade(t, samples)
			det, err := NewDNNDetector(cascade, p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := cascade.Scorer(p.W, dnn.ScorerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			flat := make([]float64, 0, 2*p.W)
			var app, atk [1]int
			decisions := 0
			for i, s := range samples {
				if len(det.Push(s)) == 0 {
					continue
				}
				if want := p.W + decisions*p.DW; i+1 != want {
					t.Fatalf("decision %d at sample %d, want %d", decisions, i+1, want)
				}
				decisions++
				flat = flat[:0]
				for _, r := range samples[i+1-p.W : i+1] {
					flat = append(flat, r.AccessNum, r.MissNum)
				}
				ref.ScoreFlat(1, flat, app[:], atk[:])
				snap := det.StateSnapshot()
				gotApp, gotAtk := int(snap["last_app"]), int(snap["last_attack_class"])
				if gotApp != app[0] || gotAtk != atk[0] {
					t.Fatalf("decision %d: detector (%d,%d), ScoreFlat (%d,%d)", decisions, gotApp, gotAtk, app[0], atk[0])
				}
			}
			if want := (len(samples)-p.W)/p.DW + 1; decisions != want {
				t.Errorf("%d decisions, want %d", decisions, want)
			}
		})
	}
}
