package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/par"
)

// These tests pin the Runner's central guarantee: results merged by cell
// index are byte-identical to a serial run for any worker count. They run
// each sweep at workers=1 and workers=8 and compare the JSON-encoded
// outputs, so any shared mutable state between cells shows up either here
// or (raced) under -race in CI.

// withWorkers runs fn with the process-wide parallelism forced to w and
// returns the result marshalled to JSON.
func withWorkers(t *testing.T, w int, fn func() (any, error)) []byte {
	t.Helper()
	prev := par.SetParallelism(w)
	defer par.SetParallelism(prev)
	v, err := fn()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestCompareDetectorsParallelDeterminism(t *testing.T) {
	run := func() (any, error) {
		return CompareDetectors([]string{"KM", "TS"}, StandardFactories(false), BusLock, false, []uint64{5, 6})
	}
	serial := withWorkers(t, 1, run)
	parallel := withWorkers(t, 8, run)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("CompareDetectors output differs between workers=1 and workers=8:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

func TestAlphaSweepParallelDeterminism(t *testing.T) {
	run := func() (any, error) {
		return sweepFor("alpha").Run("KM", []float64{0.2, 0.8}, []uint64{7, 8})
	}
	serial := withWorkers(t, 1, run)
	parallel := withWorkers(t, 8, run)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("alpha sweep output differs between workers=1 and workers=8:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

func TestFig1ParallelDeterminism(t *testing.T) {
	run := func() (any, error) {
		return Fig1KStestFalsePositives(120, []uint64{3, 4, 5})
	}
	serial := withWorkers(t, 1, run)
	parallel := withWorkers(t, 8, run)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("Fig1KStestFalsePositives output differs between workers=1 and workers=8:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// Every cell of a DNN stride sweep builds its detector on one shared
// cascade, as the dnndw row does: the cells may share its weights and
// nothing they write.
func TestDNNStrideSweepParallelDeterminism(t *testing.T) {
	cascade := testCascade(t)
	sweep := sweepFor("dnndw")
	sweep.train = func(int) (*dnn.Cascade, error) { return cascade, nil }
	run := func() (any, error) {
		return sweep.Run("KM", []float64{50, 100}, []uint64{11, 12})
	}
	serial := withWorkers(t, 1, run)
	parallel := withWorkers(t, 8, run)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("DNN stride sweep differs between workers=1 and workers=8:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

func TestRunnerErrorMatchesSerial(t *testing.T) {
	// The lowest-index failure wins regardless of scheduling, matching
	// what a serial loop would have returned first.
	fail := func(i int) error {
		if i%3 == 0 {
			return errAt(i)
		}
		return nil
	}
	serialErr := par.Runner{Workers: 1}.Do(10, fail)
	for _, w := range []int{2, 8} {
		if err := (par.Runner{Workers: w}).Do(10, fail); err == nil || serialErr == nil || err.Error() != serialErr.Error() {
			t.Errorf("workers=%d error = %v, serial = %v", w, err, serialErr)
		}
	}
}

type errAt int

func (e errAt) Error() string { return fmt.Sprintf("cell %d failed", int(e)) }

// TestRunRepeatedByteIdentical pins the determinism contract at the
// single-run layer: repeated executions of one Run in one process must
// produce byte-for-byte identical JSON. The detector is KStest, whose
// throttle hook feeds back into the server it monitors.
func TestRunRepeatedByteIdentical(t *testing.T) {
	execute := func() []byte {
		spec := DefaultRunSpec("KM", BusLock, 7)
		spec.Duration = 120
		spec.UtilityVMs = 2
		res, err := Run(spec, core.DefaultParams(), KSFactory)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	first := execute()
	if len(first) == 0 {
		t.Fatal("empty result encoding; the comparison is vacuous")
	}
	for i := 0; i < 2; i++ {
		if next := execute(); !bytes.Equal(first, next) {
			t.Fatalf("execution %d diverged from execution 0 (%d vs %d bytes)", i+1, len(next), len(first))
		}
	}
}

// The report renders the same bytes at any worker count: the EXPERIMENTS.md
// block can only be checked by a byte diff if nothing in it depends on the
// run.
func TestReportDeterministic(t *testing.T) {
	serial := renderSmallReport(t, 1)
	parallel := renderSmallReport(t, 8)
	if serial != parallel {
		t.Errorf("report differs between workers=1 and workers=8:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}
