package dnn

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"memdos/internal/sim"
)

func trainedTestCascade(t *testing.T) (*Cascade, []CascadeSample) {
	t.Helper()
	rng := sim.NewRNG(60)
	samples := synthCascadeSamples(rng, 180, 16)
	c, err := NewCascade(2, tinyArch, sim.NewRNG(61))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 6
	if _, _, err := TrainCascade(c, samples, cfg); err != nil {
		t.Fatal(err)
	}
	return c, samples
}

func TestCascadeSaveLoadRoundTrip(t *testing.T) {
	c, samples := trainedTestCascade(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCascade(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumApps != c.NumApps {
		t.Errorf("NumApps = %d, want %d", loaded.NumApps, c.NumApps)
	}
	// The reloaded cascade must classify identically to the original.
	a1, k1 := scoreAll(t, c, samples[:40])
	a2, k2 := scoreAll(t, loaded, samples[:40])
	for i := range a1 {
		if a1[i] != a2[i] || k1[i] != k2[i] {
			t.Fatalf("sample %d: original (%d,%d) vs loaded (%d,%d)", i, a1[i], k1[i], a2[i], k2[i])
		}
	}
}

func TestSaveUnbuiltModelFails(t *testing.T) {
	c, err := NewCascade(2, tinyArch, sim.NewRNG(62))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err == nil {
		t.Error("saving an untrained (never-run) cascade should fail")
	}
}

// savedCompactCascade returns the Save output of an untrained compact
// two-app cascade with fitted normalization, window 12.
func savedCompactCascade(tb testing.TB) []byte {
	tb.Helper()
	const w = 12
	c, err := NewCascade(2, CompactLSTMFCNConfig, sim.NewRNG(63))
	if err != nil {
		tb.Fatal(err)
	}
	var raw [][][]float64
	for _, s := range synthCascadeSamples(sim.NewRNG(64), 12, w) {
		raw = append(raw, s.Window)
	}
	if c.Norm, err = FitChannelNorm(raw); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Scorer(w, ScorerOptions{}); err != nil { // builds the lazy LSTM branches
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadCascadeErrors(t *testing.T) {
	if _, err := LoadCascade(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadCascade(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := LoadCascade(strings.NewReader(`{"version": 1, "num_apps": 1}`)); err == nil {
		t.Error("single-app snapshot accepted")
	}

	// A -score-model file is untrusted: each tampered header must come
	// back as an error, not a panic, a mis-strided model or NaN inputs.
	good := savedCompactCascade(t)
	if _, err := LoadCascade(bytes.NewReader(good)); err != nil {
		t.Fatalf("untampered snapshot rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*cascadeSnapshot)
	}{
		{"negative window", func(s *cascadeSnapshot) { s.App.Window, s.Attack.Window = -1, -1 }},
		{"zero window", func(s *cascadeSnapshot) { s.App.Window, s.Attack.Window = 0, 0 }},
		{"windows differ", func(s *cascadeSnapshot) { s.Attack.Window++ }},
		{"window beyond the weights", func(s *cascadeSnapshot) { s.App.Window, s.Attack.Window = 1<<40, 1<<40 }},
		{"num_apps above the configs", func(s *cascadeSnapshot) { s.NumApps = 3 }},
		{"app channels", func(s *cascadeSnapshot) { s.App.Config.Channels = 3 }},
		{"attack classes", func(s *cascadeSnapshot) { s.Attack.Config.Classes = NumAttackClasses + 1 }},
		{"LSTM cells beyond the weights", func(s *cascadeSnapshot) { s.App.Config.LSTMCells = 1 << 40 }},
		{"zero std", func(s *cascadeSnapshot) { s.Norm.Std[0] = 0 }},
		{"negative std", func(s *cascadeSnapshot) { s.Norm.Std[1] = -1 }},
		{"one norm channel", func(s *cascadeSnapshot) { s.Norm.Mean, s.Norm.Std = s.Norm.Mean[:1], s.Norm.Std[:1] }},
		{"no norm", func(s *cascadeSnapshot) { s.Norm = ChannelNorm{} }},
	} {
		var snap cascadeSnapshot
		if err := json.Unmarshal(good, &snap); err != nil {
			t.Fatal(err)
		}
		tc.tamper(&snap)
		bad, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCascade(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: tampered snapshot accepted", tc.name)
		}
	}
	// NaN and Inf have no JSON spelling encoding/json accepts, so the
	// finiteness check is exercised directly.
	var snap cascadeSnapshot
	if err := json.Unmarshal(good, &snap); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		snap.Norm.Std[0] = v
		if snap.validate() == nil {
			t.Errorf("std %v accepted", v)
		}
	}
}

// FuzzLoadCascade: whatever the bytes, LoadCascade returns a cascade or
// an error — and a cascade it returns compiles and scores a batch.
func FuzzLoadCascade(f *testing.F) {
	f.Add(savedCompactCascade(f))
	f.Add([]byte(`{"version":1,"num_apps":2,"norm":{"Mean":[0,0],"Std":[1,1]},"app_model":{"window":-1},"attack_model":{"window":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCascade(bytes.NewReader(data))
		if err != nil {
			return
		}
		w := c.Window()
		s, err := c.Scorer(w, ScorerOptions{})
		if err != nil {
			return // a window shorter than the convolution edge split
		}
		const n = 3
		flat := make([]float64, n*w*2)
		for i := range flat {
			flat[i] = float64(i % 97)
		}
		s.ScoreFlat(n, flat, make([]int, n), make([]int, n))
	})
}

func TestSnapshotTamperDetection(t *testing.T) {
	c, _ := trainedTestCascade(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Rename a parameter key: restore must fail, not silently load.
	tampered := strings.Replace(buf.String(), `"conv1.w"`, `"xonv1.w"`, 1)
	if tampered == buf.String() {
		t.Fatal("expected conv1.w key in snapshot")
	}
	if _, err := LoadCascade(strings.NewReader(tampered)); err == nil {
		t.Error("tampered snapshot accepted")
	}
}
