package dnn

import (
	"fmt"
	"strings"
	"testing"

	"memdos/internal/sim"
)

// scorerFixture builds an untrained (random-weight) cascade with fitted
// normalization — enough for exact-equivalence tests that only compare
// the scorer against itself or the graph.
func scorerFixture(t testing.TB, w int) (*Cascade, []CascadeSample) {
	t.Helper()
	samples := synthCascadeSamples(sim.NewRNG(91), 64, w)
	c, err := NewCascade(2, tinyArch, sim.NewRNG(92))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][][]float64, len(samples))
	for i, s := range samples {
		raw[i] = s.Window
	}
	c.Norm, err = FitChannelNorm(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c, samples
}

func flattenWindows(samples []CascadeSample) []float64 {
	w := len(samples[0].Window)
	flat := make([]float64, 0, len(samples)*w*2)
	for _, s := range samples {
		for _, row := range s.Window {
			flat = append(flat, row[0], row[1])
		}
	}
	return flat
}

// ScoreFlat over N windows must be byte-identical to N batch-1 calls —
// logits included, not just verdicts. The windows are chosen so the
// interior convolution panels (kernels 9/5/3: T-8, T-4, T-2 rows) leave
// every possible remainder after the kernel's 4-row tier — 0 and 2 at
// T=20, 1 and 3 at T=21 and T=23 — and the batch of 37 crosses scoreTile
// with a 5-window second tile, so the LSTM and dense panels see a row
// remainder too.
func TestScoreBatchMatchesLooped(t *testing.T) {
	const n = scoreTile + 5
	for _, w := range []int{20, 21, 23} {
		t.Run(fmt.Sprintf("window%d", w), func(t *testing.T) {
			c, samples := scorerFixture(t, w)
			s, err := c.Scorer(w, ScorerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			flat := flattenWindows(samples[:n])

			apps := make([]int, n)
			attacks := make([]int, n)
			s.ScoreFlat(n, flat, apps, attacks)
			batchedApp := append([]float32(nil), s.app.logits[:n*s.app.classes]...)
			batchedAtk := append([]float32(nil), s.atk.logits[:n*s.atk.classes]...)

			a1 := make([]int, 1)
			k1 := make([]int, 1)
			for i := 0; i < n; i++ {
				s.ScoreFlat(1, flat[i*w*2:(i+1)*w*2], a1, k1)
				if a1[0] != apps[i] || k1[0] != attacks[i] {
					t.Fatalf("window %d: looped verdict (%d,%d) != batched (%d,%d)",
						i, a1[0], k1[0], apps[i], attacks[i])
				}
				for o := 0; o < s.app.classes; o++ {
					if s.app.logits[o] != batchedApp[i*s.app.classes+o] {
						t.Fatalf("window %d: batch-1 app logit %d differs: %v vs %v",
							i, o, s.app.logits[o], batchedApp[i*s.app.classes+o])
					}
				}
				for o := 0; o < s.atk.classes; o++ {
					if s.atk.logits[o] != batchedAtk[i*s.atk.classes+o] {
						t.Fatalf("window %d: batch-1 attack logit %d differs: %v vs %v",
							i, o, s.atk.logits[o], batchedAtk[i*s.atk.classes+o])
					}
				}
			}
		})
	}
}

// scoreAll runs samples through a scorer compiled at their window length
// and returns the verdicts.
func scoreAll(t testing.TB, c *Cascade, samples []CascadeSample) (apps, attacks []int) {
	t.Helper()
	s, err := c.Scorer(len(samples[0].Window), ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	apps, attacks = make([]int, len(samples)), make([]int, len(samples))
	s.ScoreFlat(len(samples), flattenWindows(samples), apps, attacks)
	return apps, attacks
}

// The compiled scorer must agree with the float64 graph path on all but
// rounding-marginal windows.
func TestScorerMatchesGraph(t *testing.T) {
	const w = 20
	c, samples := scorerFixture(t, w)
	apps, attacks := scoreAll(t, c, samples)
	agree := 0
	for i, s := range samples {
		gApp, gAtk := c.ClassifyGraph(s.Window)
		if apps[i] == gApp && attacks[i] == gAtk {
			agree++
		}
	}
	// Random weights leave tiny margins; trained models agree essentially
	// always (TestCascadeEndToEnd exercises that through the scorer).
	if agree < len(samples)*9/10 {
		t.Fatalf("scorer agrees with graph on %d/%d windows", agree, len(samples))
	}
}

// The scorer has one path. A window it cannot be compiled for — a cascade
// with no fitted normalization, a window no longer than the widest
// kernel's edge split — is an error at compile time, not a silent pass
// through the float64 graph.
func TestScorerCompileErrors(t *testing.T) {
	fitted, _ := scorerFixture(t, 20)
	unfitted, err := NewCascade(2, tinyArch, sim.NewRNG(93))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		c      *Cascade
		window int
		want   string
	}{
		{"6-sample window", fitted, 6, "too short for kernel"},
		{"unfitted norm", unfitted, 20, "no fitted channel normalization"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.c.Scorer(tc.window, ScorerOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Scorer error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// ScoreFlat at a steady batch size must not allocate (the benchpin
// companion of //memdos:hotpath on the Score path).
func TestScoreFlatZeroAllocs(t *testing.T) {
	const w, n = 20, 16
	c, samples := scorerFixture(t, w)
	s, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flat := flattenWindows(samples[:n])
	apps, attacks := make([]int, n), make([]int, n)
	s.ScoreFlat(n, flat, apps, attacks)
	if allocs := testing.AllocsPerRun(20, func() {
		s.ScoreFlat(n, flat, apps, attacks)
	}); allocs != 0 {
		t.Errorf("ScoreFlat allocates %v per run at steady state", allocs)
	}
}

func benchScorerSetup(b *testing.B, batch int) (*BatchScorer, []float64, []int, []int) {
	b.Helper()
	const w = 50
	samples := synthCascadeSamples(sim.NewRNG(7), batch, w)
	c, err := NewCascade(2, tinyArch, sim.NewRNG(8))
	if err != nil {
		b.Fatal(err)
	}
	raw := make([][][]float64, len(samples))
	for i, s := range samples {
		raw[i] = s.Window
	}
	if c.Norm, err = FitChannelNorm(raw); err != nil {
		b.Fatal(err)
	}
	s, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	flat := flattenWindows(samples)
	apps, attacks := make([]int, batch), make([]int, batch)
	s.ScoreFlat(batch, flat, apps, attacks) // warm arenas
	return s, flat, apps, attacks
}

// BenchmarkInferBatched times the compiled scorer at batch 1, 32 and
// 256 (e2ebench's dnn.score_us_per_window_* probes are its twins).
func BenchmarkInferBatched(b *testing.B) {
	for _, batch := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			s, flat, apps, attacks := benchScorerSetup(b, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScoreFlat(batch, flat, apps, attacks)
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}
