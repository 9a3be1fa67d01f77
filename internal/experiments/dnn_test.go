package experiments

import (
	"math"
	"sync"
	"testing"

	"memdos/internal/core"
	"memdos/internal/dnn"
)

// testCascade trains one reduced cascade shared by the DNN tests in this
// file (3 apps keeps training around 15 s).
var (
	testCascadeOnce sync.Once
	testCascadeVal  *dnn.Cascade
	testCascadeErr  error
)

func testCascade(t *testing.T) *dnn.Cascade {
	t.Helper()
	if testing.Short() {
		t.Skip("DNN training skipped in -short mode")
	}
	testCascadeOnce.Do(func() {
		spec := DefaultTrainingSpec()
		spec.Apps = dnnSweepApps // KM, BA, TS
		spec.RunSeconds = 90
		spec.Train.Epochs = 10
		testCascadeVal, testCascadeErr = TrainCascade(spec)
	})
	if testCascadeErr != nil {
		t.Fatal(testCascadeErr)
	}
	return testCascadeVal
}

func testDNNFactory(t *testing.T) DetectorFactory {
	cascade := testCascade(t)
	return func(env *Env) (core.Detector, error) {
		return core.NewDNNDetector(cascade, env.Params)
	}
}

func TestDNNDetectorScenario1(t *testing.T) {
	factory := testDNNFactory(t)
	params := core.DefaultParams()
	for _, mode := range []AttackMode{BusLock, Cleansing} {
		res, err := Run(DefaultRunSpec("KM", mode, 21), params, factory)
		if err != nil {
			t.Fatal(err)
		}
		a := Score(res, EvalGrace)
		if math.IsNaN(a.Recall) || a.Recall < 0.85 {
			t.Errorf("%v: DNN recall = %v, want >= 0.85 (paper 90-95%%)", mode, a.Recall)
		}
		if a.Specificity < 0.8 {
			t.Errorf("%v: DNN specificity = %v, want >= 0.8 (paper 85-95%%)", mode, a.Specificity)
		}
		// Fig. 13: DNN detects within 5-10 s, faster than SDS's 15-30 s.
		if math.IsNaN(a.MeanDelay) || a.MeanDelay > 12 {
			t.Errorf("%v: DNN delay = %v, want <= ~10", mode, a.MeanDelay)
		}
	}
}

func TestDNNFasterThanSDS(t *testing.T) {
	factory := testDNNFactory(t)
	params := core.DefaultParams()
	res, err := Run(DefaultRunSpec("KM", BusLock, 22), params, factory)
	if err != nil {
		t.Fatal(err)
	}
	dnnDelay := Score(res, EvalGrace).MeanDelay

	res, err = Run(DefaultRunSpec("KM", BusLock, 22), params, SDSFactory)
	if err != nil {
		t.Fatal(err)
	}
	sdsDelay := Score(res, EvalGrace).MeanDelay
	if !(dnnDelay < sdsDelay) {
		t.Errorf("DNN delay %v should beat SDS %v", dnnDelay, sdsDelay)
	}
}

func TestScenario2DNNMoreRobust(t *testing.T) {
	// Figs. 15-16: under the adaptive schedule (attack states 10-50 s)
	// DNN's faster response yields higher recall than SDS and KStest.
	factory := testDNNFactory(t)
	params := core.DefaultParams()
	score := func(f DetectorFactory) Accuracy {
		t.Helper()
		var recs, spcs []float64
		for _, seed := range []uint64{31, 32} {
			spec := DefaultRunSpec("KM", BusLock, seed)
			spec.Adaptive = true
			res, err := Run(spec, params, f)
			if err != nil {
				t.Fatal(err)
			}
			a := Score(res, Scenario2Grace)
			recs = append(recs, a.Recall)
			spcs = append(spcs, a.Specificity)
		}
		return Accuracy{Recall: mean(recs), Specificity: mean(spcs)}
	}
	dnnAcc := score(factory)
	sdsAcc := score(SDSFactory)
	ksAcc := score(KSFactory)

	if dnnAcc.Recall < 0.7 {
		t.Errorf("scenario 2 DNN recall = %v, want >= 0.7 (paper 80-95%%)", dnnAcc.Recall)
	}
	if !(dnnAcc.Recall > sdsAcc.Recall) {
		t.Errorf("DNN recall %v should beat SDS %v in scenario 2", dnnAcc.Recall, sdsAcc.Recall)
	}
	if !(dnnAcc.Recall > ksAcc.Recall) {
		t.Errorf("DNN recall %v should beat KStest %v in scenario 2", dnnAcc.Recall, ksAcc.Recall)
	}
}

func mean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// TestHeldOutWindowsRefusesUnclassedModes: the cascade has classes for no
// attack, bus locking and LLC cleansing only. Windows of any other mode
// would be labelled no-attack by AttackClassOf, so they are refused
// rather than collected.
func TestHeldOutWindowsRefusesUnclassedModes(t *testing.T) {
	spec := DefaultTrainingSpec()
	for _, mode := range []AttackMode{MemBW, AttackMode(99)} {
		if wins, err := HeldOutWindows("KM", mode, spec); err == nil {
			t.Errorf("%v: %d windows, want an error", mode, len(wins))
		}
	}
}
