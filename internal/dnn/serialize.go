package dnn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"memdos/internal/sim"
)

// Model serialization: a trained cascade can be saved after training and
// reloaded for deployment (the cloud provider trains once, then ships the
// model to every hypervisor). The format is a versioned JSON document of
// the architecture, the normalization statistics, and every parameter
// block keyed by name.

// serialFormatVersion guards against loading incompatible snapshots.
const serialFormatVersion = 1

// modelSnapshot is the serialized form of one LSTMFCN.
type modelSnapshot struct {
	Config LSTMFCNConfig        `json:"config"`
	Window int                  `json:"window"`
	Params map[string][]float64 `json:"params"`
	// BatchNorm running statistics, keyed like params.
	RunningStats map[string][]float64 `json:"running_stats"`
}

// cascadeSnapshot is the serialized form of a Cascade.
type cascadeSnapshot struct {
	Version int           `json:"version"`
	NumApps int           `json:"num_apps"`
	Norm    ChannelNorm   `json:"norm"`
	App     modelSnapshot `json:"app_model"`
	Attack  modelSnapshot `json:"attack_model"`
}

// snapshot captures an LSTMFCN's state. The model must have been run at
// least once (so the lazily built LSTM exists).
func (m *LSTMFCN) snapshot() (modelSnapshot, error) {
	if m.lstm == nil {
		return modelSnapshot{}, fmt.Errorf("dnn: cannot snapshot a model that has never run (LSTM not built)")
	}
	s := modelSnapshot{
		Config:       m.cfg,
		Window:       m.lstm.In,
		Params:       make(map[string][]float64),
		RunningStats: make(map[string][]float64),
	}
	for _, p := range m.Params() {
		if _, dup := s.Params[p.Name]; dup {
			return modelSnapshot{}, fmt.Errorf("dnn: duplicate parameter name %q", p.Name)
		}
		s.Params[p.Name] = append([]float64(nil), p.W...)
	}
	for i, bn := range []*BatchNorm{m.bn1, m.bn2, m.bn3} {
		key := fmt.Sprintf("bn%d", i)
		s.RunningStats[key+".mean"] = append([]float64(nil), bn.runMean...)
		s.RunningStats[key+".var"] = append([]float64(nil), bn.runVar...)
	}
	return s, nil
}

// restore loads a snapshot into a freshly constructed LSTMFCN.
func (m *LSTMFCN) restore(s modelSnapshot) error {
	if m.cfg != s.Config {
		return fmt.Errorf("dnn: config mismatch: built %+v, snapshot %+v", m.cfg, s.Config)
	}
	m.ensureLSTM(s.Window)
	for _, p := range m.Params() {
		w, ok := s.Params[p.Name]
		if !ok {
			return fmt.Errorf("dnn: snapshot missing parameter %q", p.Name)
		}
		if len(w) != len(p.W) {
			return fmt.Errorf("dnn: parameter %q has %d weights, snapshot %d", p.Name, len(p.W), len(w))
		}
		copy(p.W, w)
	}
	for i, bn := range []*BatchNorm{m.bn1, m.bn2, m.bn3} {
		key := fmt.Sprintf("bn%d", i)
		mean, ok1 := s.RunningStats[key+".mean"]
		variance, ok2 := s.RunningStats[key+".var"]
		if !ok1 || !ok2 || len(mean) != len(bn.runMean) || len(variance) != len(bn.runVar) {
			return fmt.Errorf("dnn: snapshot missing running stats for %s", key)
		}
		copy(bn.runMean, mean)
		copy(bn.runVar, variance)
	}
	return nil
}

// Save serializes a trained cascade to w.
func (c *Cascade) Save(w io.Writer) error {
	app, err := c.App.snapshot()
	if err != nil {
		return fmt.Errorf("dnn: app model: %w", err)
	}
	atk, err := c.Attack.snapshot()
	if err != nil {
		return fmt.Errorf("dnn: attack model: %w", err)
	}
	snap := cascadeSnapshot{
		Version: serialFormatVersion,
		NumApps: c.NumApps,
		Norm:    c.Norm,
		App:     app,
		Attack:  atk,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// LoadCascade reconstructs a cascade saved with Save. The returned cascade
// has its LSTM branches built, ready for Scorer at its Window.
func LoadCascade(r io.Reader) (*Cascade, error) {
	var snap cascadeSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("dnn: decoding cascade: %w", err)
	}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	// Architectures are embedded, so reconstruct with them directly.
	mk := func(ms modelSnapshot) (*LSTMFCN, error) {
		m, err := NewLSTMFCN(ms.Config, newRestoreRNG())
		if err != nil {
			return nil, err
		}
		if err := m.restore(ms); err != nil {
			return nil, err
		}
		return m, nil
	}
	app, err := mk(snap.App)
	if err != nil {
		return nil, fmt.Errorf("dnn: app model: %w", err)
	}
	atk, err := mk(snap.Attack)
	if err != nil {
		return nil, fmt.Errorf("dnn: attack model: %w", err)
	}
	return &Cascade{NumApps: snap.NumApps, Norm: snap.Norm, App: app, Attack: atk}, nil
}

// validate rejects a snapshot whose header does not describe a cascade
// this package could have saved. The file is operator-supplied
// (memdosd -score-model), so nothing in it is trusted: every check runs
// before a model is built, and the weight count bounds what building
// allocates by what the file actually carries.
func (s *cascadeSnapshot) validate() error {
	if s.Version != serialFormatVersion {
		return fmt.Errorf("dnn: snapshot version %d, want %d", s.Version, serialFormatVersion)
	}
	if s.NumApps <= 1 {
		return fmt.Errorf("dnn: snapshot has %d apps", s.NumApps)
	}
	if len(s.Norm.Mean) != 2 || len(s.Norm.Std) != 2 {
		return fmt.Errorf("dnn: snapshot norm has %d means / %d stds, want 2 / 2", len(s.Norm.Mean), len(s.Norm.Std))
	}
	for ch := range s.Norm.Mean {
		if m, sd := s.Norm.Mean[ch], s.Norm.Std[ch]; math.IsNaN(m) || math.IsInf(m, 0) || math.IsInf(sd, 0) || !(sd > 0) {
			return fmt.Errorf("dnn: snapshot norm channel %d has mean %v, std %v; want finite and std > 0", ch, m, sd)
		}
	}
	if s.App.Window <= 0 || s.App.Window != s.Attack.Window {
		return fmt.Errorf("dnn: snapshot windows %d (app) / %d (attack), want equal and positive", s.App.Window, s.Attack.Window)
	}
	for _, st := range []struct {
		name              string
		ms                *modelSnapshot
		channels, classes int
	}{
		{"app", &s.App, 2, s.NumApps},
		{"attack", &s.Attack, 2 + s.NumApps, NumAttackClasses},
	} {
		cfg := st.ms.Config
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("dnn: %s model: %w", st.name, err)
		}
		if cfg.Channels != st.channels || cfg.Classes != st.classes {
			return fmt.Errorf("dnn: %s model has %d channels / %d classes, a %d-app cascade needs %d / %d",
				st.name, cfg.Channels, cfg.Classes, s.NumApps, st.channels, st.classes)
		}
		have := 0
		for _, w := range st.ms.Params {
			have += len(w)
		}
		if want := cfg.weights(st.ms.Window); float64(have) != want { // both sides are integer counts; float64 only keeps absurd dimensions from overflowing
			return fmt.Errorf("dnn: %s model carries %d weights, its architecture at window %d needs %.0f",
				st.name, have, st.ms.Window, want)
		}
	}
	return nil
}

// newRestoreRNG seeds the throwaway initializer used before weights are
// overwritten by a snapshot.
func newRestoreRNG() *sim.RNG { return sim.NewRNG(0xdecade) }
