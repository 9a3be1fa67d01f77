package dnn

import (
	"bytes"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"memdos/internal/par"
	"memdos/internal/sim"
)

func TestChannelNormRoundTrip(t *testing.T) {
	windows := [][][]float64{
		{{100, 10}, {120, 12}},
		{{80, 9}, {110, 11}},
	}
	n, err := FitChannelNorm(windows)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized training data should be ~zero-mean unit-std per channel.
	var sum, sq [2]float64
	count := 0
	for _, w := range windows {
		for _, row := range n.Apply(w) {
			for c := 0; c < 2; c++ {
				sum[c] += row[c]
				sq[c] += row[c] * row[c]
			}
			count++
		}
	}
	for c := 0; c < 2; c++ {
		mean := sum[c] / float64(count)
		if math.Abs(mean) > 1e-9 {
			t.Errorf("channel %d mean = %v", c, mean)
		}
		if v := sq[c]/float64(count) - mean*mean; math.Abs(v-1) > 1e-9 {
			t.Errorf("channel %d variance = %v", c, v)
		}
	}
}

func TestChannelNormErrors(t *testing.T) {
	if _, err := FitChannelNorm(nil); err == nil {
		t.Error("empty data accepted")
	}
}

func TestChannelNormConstantChannel(t *testing.T) {
	n, err := FitChannelNorm([][][]float64{{{5, 5}, {5, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	// Constant channel: std floor avoids division by zero.
	out := n.Apply([][]float64{{5, 5}})
	if math.IsNaN(out[0][0]) || math.IsInf(out[0][0], 0) {
		t.Errorf("constant channel normalization = %v", out[0][0])
	}
}

func TestConditionWindow(t *testing.T) {
	w := [][]float64{{1, 2}, {3, 4}}
	out := conditionWindow(w, 1, 3)
	if len(out[0]) != 5 {
		t.Fatalf("conditioned width = %d", len(out[0]))
	}
	if out[0][3] != 1 || out[0][2] != 0 || out[0][4] != 0 {
		t.Errorf("one-hot wrong: %v", out[0])
	}
	if out[1][0] != 3 || out[1][1] != 4 {
		t.Errorf("data not copied: %v", out[1])
	}
}

func TestNewCascadeValidation(t *testing.T) {
	if _, err := NewCascade(1, CompactLSTMFCNConfig, sim.NewRNG(1)); err == nil {
		t.Error("single-app cascade accepted")
	}
}

// synthCascadeSamples builds windows for 2 synthetic apps x 3 attack
// states. App identity is carried by the access *pattern* (app 1
// oscillates, app 0 is flat) so it survives the attacks' level scaling —
// as with the real workloads, where shape outlives scale. Bus lock scales
// accesses by 0.3, cleansing inflates misses 5x.
func synthCascadeSamples(rng *sim.RNG, n, w int) []CascadeSample {
	var out []CascadeSample
	for i := 0; i < n; i++ {
		app := i % 2
		atk := (i / 2) % 3
		win := make([][]float64, w)
		for t := range win {
			shape := 1.0
			if app == 1 {
				shape = 1 + 0.6*math.Sin(2*math.Pi*float64(t)/5)
			}
			acc := shape * (100 + rng.Normal(0, 8))
			miss := shape * (10 + rng.Normal(0, 1))
			switch atk {
			case ClassBusLock:
				acc *= 0.3
				miss *= 0.3
			case ClassCleansing:
				acc *= 0.6
				miss *= 5
			}
			win[t] = []float64{acc, miss}
		}
		out = append(out, CascadeSample{Window: win, AppLabel: app, AttackLabel: atk})
	}
	return out
}

func tinyArch(channels, classes int) LSTMFCNConfig {
	return LSTMFCNConfig{
		Channels:    channels,
		Classes:     classes,
		ConvFilters: [3]int{6, 8, 6},
		Kernels:     [3]int{9, 5, 3},
		LSTMCells:   8,
		Dropout:     0.1,
	}
}

func TestCascadeEndToEnd(t *testing.T) {
	rng := sim.NewRNG(50)
	samples := synthCascadeSamples(rng, 360, 20)
	c, err := NewCascade(2, tinyArch, sim.NewRNG(51))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 12
	appRes, atkRes, err := TrainCascade(c, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if appRes.BestValAcc < 0.95 {
		t.Errorf("app classifier val acc = %v", appRes.BestValAcc)
	}
	if atkRes.BestValAcc < 0.85 {
		t.Errorf("attack classifier val acc = %v", atkRes.BestValAcc)
	}
	// Fresh windows through the full cascade.
	test := synthCascadeSamples(sim.NewRNG(52), 60, 20)
	apps, attacks := scoreAll(t, c, test)
	appOK, atkOK := 0, 0
	for i, s := range test {
		if apps[i] == s.AppLabel {
			appOK++
		}
		if attacks[i] == s.AttackLabel {
			atkOK++
		}
	}
	if frac := float64(appOK) / float64(len(test)); frac < 0.9 {
		t.Errorf("cascade app accuracy = %v", frac)
	}
	if frac := float64(atkOK) / float64(len(test)); frac < 0.8 {
		t.Errorf("cascade attack accuracy = %v", frac)
	}
}

// TestTrainCascadeStagesSideBySide trains a tiny cascade on one worker and
// on two. The Save bytes and the verbose lines must be equal, the
// application stage's lines first, and the Save bytes must hash to the
// digest the stages gave when they were trained one after the other, so
// the serial trajectory cannot drift.
func TestTrainCascadeStagesSideBySide(t *testing.T) {
	defer par.SetParallelism(par.SetParallelism(0))
	const epochs = 2
	train := func(workers int) ([]byte, []string) {
		par.SetParallelism(workers)
		c, err := NewCascade(2, tinyArch, sim.NewRNG(81))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig()
		cfg.Epochs, cfg.Patience = epochs, 1
		var lines []string
		cfg.Verbose = func(s string) { lines = append(lines, s) }
		if _, _, err := TrainCascade(c, synthCascadeSamples(sim.NewRNG(80), 60, 20), cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), lines
	}
	save1, lines1 := train(1)
	save2, lines2 := train(2)
	if !bytes.Equal(save1, save2) {
		t.Error("Save bytes differ between one worker and two")
	}
	if !slices.Equal(lines1, lines2) {
		t.Errorf("verbose lines differ:\none worker  %q\ntwo workers %q", lines1, lines2)
	}
	if len(lines1) != 2*epochs || !strings.HasPrefix(lines1[0], "epoch 0:") || !strings.HasPrefix(lines1[epochs], "epoch 0:") {
		t.Errorf("verbose lines %q, want %d epochs of the application stage, then of the attack stage", lines1, epochs)
	}
	h := fnv.New64a()
	h.Write(save1)
	if got, want := h.Sum64(), uint64(0x3a4e37db61a2f425); got != want {
		t.Errorf("Save digest %#x, want %#x", got, want)
	}
}

func TestTrainCascadeEmpty(t *testing.T) {
	c, _ := NewCascade(2, tinyArch, sim.NewRNG(1))
	if _, _, err := TrainCascade(c, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty samples accepted")
	}
}

func TestClassConfusion(t *testing.T) {
	if _, err := NewClassConfusion(1); err == nil {
		t.Error("K=1 accepted")
	}
	c, err := NewClassConfusion(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accuracy() != 0 {
		t.Error("empty matrix accuracy should be 0")
	}
	pairs := [][2]int{{0, 0}, {0, 0}, {0, 1}, {1, 1}, {2, 0}, {2, 2}}
	for _, p := range pairs {
		if err := c.Add(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(5, 0); err == nil {
		t.Error("out-of-range class accepted")
	}
	if got := c.Accuracy(); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("accuracy = %v", got)
	}
	rec := c.PerClassRecall()
	if math.Abs(rec[0]-2.0/3) > 1e-12 || rec[1] != 1 || rec[2] != 0.5 {
		t.Errorf("per-class recall = %v", rec)
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestEvaluateCascade(t *testing.T) {
	rng := sim.NewRNG(70)
	samples := synthCascadeSamples(rng, 360, 20)
	c, _ := NewCascade(2, tinyArch, sim.NewRNG(71))
	cfg := DefaultTrainConfig()
	cfg.Epochs = 12
	if _, _, err := TrainCascade(c, samples, cfg); err != nil {
		t.Fatal(err)
	}
	test := synthCascadeSamples(sim.NewRNG(72), 60, 20)
	app, atk, err := EvaluateCascade(c, test)
	if err != nil {
		t.Fatal(err)
	}
	if app.Accuracy() < 0.85 {
		t.Errorf("app confusion accuracy = %v", app.Accuracy())
	}
	if atk.Accuracy() < 0.75 {
		t.Errorf("attack confusion accuracy = %v", atk.Accuracy())
	}
	if _, _, err := EvaluateCascade(c, nil); err == nil {
		t.Error("empty samples accepted")
	}
	mixed := append(test[:1:1], synthCascadeSamples(sim.NewRNG(73), 1, 21)...)
	if _, _, err := EvaluateCascade(c, mixed); err == nil {
		t.Error("mixed window lengths accepted")
	}
}
