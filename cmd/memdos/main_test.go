package main

import (
	"os"
	"path/filepath"
	"testing"

	"memdos/internal/daemon"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
)

// The file `memdos train -out` writes is the one `memdosd -score-model`
// reads: it must load and compile, as memdosd does, at the training window
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

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dnn.LoadCascade(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := daemon.NewCascadeScorer(c, 0, dnn.ScorerOptions{})
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

// Subcommands refuse a seed count below one and an unknown scenario
// before running anything, rather than printing zeros and NaN, panicking,
// or silently running Scenario 1.
func TestDispatchRefusesBadSeedsAndScenario(t *testing.T) {
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"sweep", []string{"-seeds", "0"}},
		{"compare", []string{"-seeds", "-1"}},
		{"compare", []string{"-seeds", "0"}},
		{"compare", []string{"-scenario", "3"}},
		{"fig1", []string{"-seeds", "0"}},
		{"membw", []string{"-seeds", "0"}},
	} {
		if err := dispatch(tc.cmd, tc.args); err == nil {
			t.Errorf("memdos %s %v: accepted", tc.cmd, tc.args)
		}
	}
}

// A refused command line exits 2 from run, after its defers: the CPU
// profile asked for is still written, not left empty.
func TestUsageErrorsWriteProfile(t *testing.T) {
	defer func(args []string) { os.Args = args }(os.Args)
	for _, tc := range [][]string{
		{"bogus"},
		{"fig1", "-bogus"},
		{"report", "-seeds", "3"},
	} {
		path := filepath.Join(t.TempDir(), "cpu.pprof")
		os.Args = append([]string{"memdos", "-cpuprofile", path}, tc...)
		if code := run(); code != 2 {
			t.Errorf("memdos %v: exit %d, want 2", tc, code)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("memdos %v: CPU profile not written (%v)", tc, err)
		}
	}
}
