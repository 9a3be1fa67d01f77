package main

import (
	"path/filepath"
	"testing"

	"memdos/internal/daemon"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
)

// The file `memdos train -out` writes is the one `memdosd -score-model`
// reads: it must load through the daemon's loader at the training window
// and score windows to the verdicts of the cascade the command trained.
// Training is deterministic, so running the same spec again rebuilds that
// in-memory cascade.
func TestTrainOutLoadsInDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a cascade twice")
	}
	path := filepath.Join(t.TempDir(), "cascade.json")
	if err := cmdTrain([]string{"-apps", "KM,FN", "-epochs", "1", "-out", path}); err != nil {
		t.Fatal(err)
	}
	spec := experiments.DefaultTrainingSpec()
	spec.Apps = []string{"KM", "FN"}
	spec.Train.Epochs = 1
	inMemory, err := experiments.TrainCascade(spec)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := daemon.LoadCascadeScorer(path, 0, dnn.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Window() != spec.Window {
		t.Fatalf("loaded scorer window %d, trained at %d", loaded.Window(), spec.Window)
	}
	wins, err := experiments.HeldOutWindows("KM", experiments.BusLock, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) == 0 {
		t.Fatal("no held-out windows")
	}
	want, err := inMemory.Scorer(spec.Window, dnn.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]float64, 0, 2*spec.Window)
	var app, atk, wantApp, wantAtk [1]int
	for i, w := range wins {
		flat = flat[:0]
		for _, row := range w {
			flat = append(flat, row[0], row[1])
		}
		loaded.ScoreFlat(1, flat, app[:], atk[:])
		want.ScoreFlat(1, flat, wantApp[:], wantAtk[:])
		if app != wantApp || atk != wantAtk {
			t.Fatalf("window %d: loaded file scores (%d,%d), in-memory cascade (%d,%d)", i, app[0], atk[0], wantApp[0], wantAtk[0])
		}
	}
}
