package experiments

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"memdos/internal/core"
	"memdos/internal/par"
	"memdos/internal/pcm"
	"memdos/internal/workload"
)

func TestAttackModeString(t *testing.T) {
	if NoAttack.String() != "none" || BusLock.String() != "bus locking" ||
		Cleansing.String() != "LLC cleansing" {
		t.Error("mode names wrong")
	}
	if AttackMode(9).String() == "" {
		t.Error("unknown mode should format")
	}
}

func TestRunSpecValidation(t *testing.T) {
	if _, err := Run(DefaultRunSpec("NOPE", NoAttack, 1), core.DefaultParams(), nil); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestRunCleanScenario(t *testing.T) {
	spec := DefaultRunSpec("KM", NoAttack, 1)
	spec.Duration = 60
	res, err := Run(spec, core.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Access.Len() != 6000 {
		t.Errorf("samples = %d", res.Access.Len())
	}
	if len(res.Truth) != 0 {
		t.Errorf("clean run has truth intervals %v", res.Truth)
	}
}

func TestRunScenario1Truth(t *testing.T) {
	spec := DefaultRunSpec("KM", BusLock, 1)
	spec.Duration = Scenario1Duration
	res, err := Run(spec, core.DefaultParams(), SDSFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) != 1 || res.Truth[0].Start != Scenario1AttackStart {
		t.Fatalf("truth = %v", res.Truth)
	}
	a := Score(res, EvalGrace)
	if a.Recall < 0.95 {
		t.Errorf("SDS recall = %v", a.Recall)
	}
	if a.Specificity < 0.9 {
		t.Errorf("SDS specificity = %v", a.Specificity)
	}
	if math.IsNaN(a.MeanDelay) || a.MeanDelay > 35 {
		t.Errorf("SDS delay = %v", a.MeanDelay)
	}
}

func TestRunAdaptiveTruth(t *testing.T) {
	spec := DefaultRunSpec("KM", BusLock, 2)
	spec.Adaptive = true
	spec.Duration = 120
	res, err := Run(spec, core.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) == 0 {
		t.Fatal("adaptive run has no attack intervals")
	}
	for _, iv := range res.Truth {
		if iv.End <= iv.Start || iv.End > 120 {
			t.Errorf("bad interval %v", iv)
		}
	}
}

func TestProfileCacheStable(t *testing.T) {
	p := core.DefaultParams()
	a, err := profileFor("BA", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := profileFor("BA", p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached profile differs")
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := Fig1KStestFalsePositives(600, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, r := range res.Rows {
		rates[r.App] = r.FalseAlarmRate
	}
	if len(rates) != 10 {
		t.Fatalf("rows = %d", len(rates))
	}
	// Paper Section III-B: TS and PCA worst (~60%), KM best (~20%).
	if rates["KM"] >= rates["TS"] || rates["KM"] >= rates["PCA"] {
		t.Errorf("KM rate %v should be lowest (TS %v, PCA %v)", rates["KM"], rates["TS"], rates["PCA"])
	}
	if rates["TS"] < 0.4 {
		t.Errorf("TS rate %v, want >= 0.4 (paper ~0.6)", rates["TS"])
	}
	if rates["KM"] > 0.35 {
		t.Errorf("KM rate %v, want <= 0.35 (paper ~0.2)", rates["KM"])
	}
	// All apps show substantial false positives — the paper's point.
	for app, r := range rates {
		if r < 0.05 {
			t.Errorf("%s rate %v implausibly low", app, r)
		}
	}
	if len(res.TeraSortFlags) == 0 {
		t.Error("no TeraSort flag timeline")
	}
}

func TestMeasurementTracesObservations(t *testing.T) {
	// Observation (1) and (2) across all apps, one seed.
	for _, app := range workload.Abbrevs() {
		bl, err := MeasurementTrace(app, BusLock, 4)
		if err != nil {
			t.Fatal(err)
		}
		if bl.DuringMean > 0.55*bl.BeforeMean {
			t.Errorf("%s bus lock: AccessNum %v -> %v, insufficient drop", app, bl.BeforeMean, bl.DuringMean)
		}
		cl, err := MeasurementTrace(app, Cleansing, 4)
		if err != nil {
			t.Fatal(err)
		}
		if cl.DuringMean < 2*cl.BeforeMean {
			t.Errorf("%s cleansing: MissNum %v -> %v, insufficient rise", app, cl.BeforeMean, cl.DuringMean)
		}
	}
	// Periodic apps: period elongates (Observation 2).
	for _, app := range []string{"PCA", "FN"} {
		tr, err := MeasurementTrace(app, Cleansing, 4)
		if err != nil {
			t.Fatal(err)
		}
		if tr.CleanPeriod == 0 {
			t.Errorf("%s: no clean period", app)
			continue
		}
		if tr.AttackedPeriod != 0 && tr.AttackedPeriod <= tr.CleanPeriod {
			t.Errorf("%s: period %v -> %v, expected elongation", app, tr.CleanPeriod, tr.AttackedPeriod)
		}
	}
}

// TestMeasurementTraceNonPeriodicHasNoPeriod: an app Table II lists as
// non-periodic reports no period, although the estimator finds one in
// the 60 s clean halves of these two traces.
func TestMeasurementTraceNonPeriodicHasNoPeriod(t *testing.T) {
	for _, tc := range []struct {
		app  string
		mode AttackMode
	}{{"KM", BusLock}, {"BA", Cleansing}} {
		if workload.MustByAbbrev(tc.app).Periodic {
			t.Fatalf("%s is periodic in Table II", tc.app)
		}
		tr, err := MeasurementTrace(tc.app, tc.mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tr.CleanPeriod != 0 || tr.AttackedPeriod != 0 {
			t.Errorf("%s under %v: period %v -> %v, want 0 -> 0", tc.app, tc.mode, tr.CleanPeriod, tr.AttackedPeriod)
		}
	}
}

// TestRunRecordsOnlyTheVictim: a Run keeps the sample history of the
// victim and of no other VM. One 600 s KM bus-lock run under SDS
// allocates about 5 MB with the victim's two series; with two series per
// counter, for all nine VMs, it allocated about 45 MB.
func TestRunRecordsOnlyTheVictim(t *testing.T) {
	spec, params := DefaultRunSpec("KM", BusLock, 1), core.DefaultParams()
	// Prime the profile cache: the profiling run is not the one measured.
	if _, err := Run(spec, params, SDSFactory); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(spec, params, SDSFactory)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Access.Len() != 60000 || res.Miss.Len() != 60000 {
		t.Fatalf("victim trace holds %d/%d samples, want 60000", res.Access.Len(), res.Miss.Len())
	}
	const limit = 12 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Run allocated %.1f MB", float64(got)/(1<<20))
	if got > limit {
		t.Errorf("one Run allocated %.1f MB, want under %d MB", float64(got)/(1<<20), limit>>20)
	}
}

func TestFig7Example(t *testing.T) {
	res, err := Fig7SDSBExample()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EWMA) == 0 {
		t.Fatal("no EWMA series")
	}
	if res.Lower >= res.Upper {
		t.Errorf("bounds [%v, %v]", res.Lower, res.Upper)
	}
	if res.AlarmWindow < res.AttackWindow {
		t.Errorf("alarm window %d before attack window %d", res.AlarmWindow, res.AttackWindow)
	}
	// Post-attack EWMA sits below the lower bound.
	tail := res.EWMA[len(res.EWMA)-10:]
	for _, v := range tail {
		if v > res.Lower {
			t.Errorf("post-attack EWMA %v above lower bound %v", v, res.Lower)
		}
	}
}

func TestFig8Example(t *testing.T) {
	res, err := Fig8SDSPExample()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.NormalPeriod-17) > 3 {
		t.Errorf("FN normal period = %v, want ~17", res.NormalPeriod)
	}
	if res.AlarmWindow < res.AttackWindow {
		t.Errorf("alarm window %d before attack %d", res.AlarmWindow, res.AttackWindow)
	}
	// Pre-attack estimates cluster near the normal period; post-attack
	// evaluations are anomalous — either an elongated period or no
	// credible period at all (the stretched pattern no longer fits the
	// W_P analysis window).
	pre, post, postAnomalous := 0, 0, 0
	var preDev float64
	for i, w := range res.EvalWindows {
		p := res.Periods[i]
		switch {
		case w < res.AttackWindow:
			if p == 0 {
				continue
			}
			pre++
			preDev += math.Abs(p-res.NormalPeriod) / res.NormalPeriod
		case w > res.AttackWindow+20:
			post++
			if p == 0 || math.Abs(p-res.NormalPeriod)/res.NormalPeriod > 0.2 {
				postAnomalous++
			}
		}
	}
	if pre == 0 || post == 0 {
		t.Fatalf("period estimates: %d pre, %d post", pre, post)
	}
	if preDev/float64(pre) > 0.15 {
		t.Errorf("pre-attack period deviation = %v", preDev/float64(pre))
	}
	if frac := float64(postAnomalous) / float64(post); frac < 0.8 {
		t.Errorf("only %v of post-attack evaluations anomalous", frac)
	}
}

func TestScenario1ComparisonShape(t *testing.T) {
	// The Figs. 11-13 headline on a subset: SDS specificity beats KStest,
	// both recall ~1, SDS delay shorter.
	cells, err := CompareDetectors([]string{"KM", "TS"}, StandardFactories(false), BusLock, false, []uint64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ComparisonCell{}
	for _, c := range cells {
		byKey[c.App+"/"+c.Detector] = c
	}
	var sdsDelaySum, ksDelaySum float64
	for _, app := range []string{"KM", "TS"} {
		sds := byKey[app+"/SDS"]
		ks := byKey[app+"/KStest"]
		if sds.Recall.Median < 0.95 {
			t.Errorf("%s SDS recall = %v", app, sds.Recall.Median)
		}
		if sds.Spec.Median < 0.9 {
			t.Errorf("%s SDS specificity = %v", app, sds.Spec.Median)
		}
		// Fig. 13 envelope: SDS within ~15-30 s; KStest's protocol floor
		// is 4 tests at L_M = 5 s, but a latched false positive can
		// shortcut an individual run, so per-run lower bounds stay loose.
		if sds.Delay < 10 || sds.Delay > 32 {
			t.Errorf("%s SDS delay = %v, want ~15-30", app, sds.Delay)
		}
		if ks.Delay < 5 || ks.Delay > 55 {
			t.Errorf("%s KStest delay = %v, want within (5, 55)", app, ks.Delay)
		}
		sdsDelaySum += sds.Delay
		ksDelaySum += ks.Delay
	}
	// Aggregate ordering (the "40% shorter detection delay" headline):
	// SDS responds no slower than KStest overall.
	if sdsDelaySum > ksDelaySum+2 {
		t.Errorf("aggregate delays: SDS %v vs KStest %v", sdsDelaySum/2, ksDelaySum/2)
	}
	// Fig. 12's false-positive gap is strongest on the phase-heavy apps;
	// KM is the paper's mildest case and our KStest round protocol keeps
	// it clean (documented deviation in EXPERIMENTS.md), so the strict
	// ordering is asserted on TeraSort.
	if ks, sds := byKey["TS/KStest"], byKey["TS/SDS"]; ks.Spec.Median >= sds.Spec.Median {
		t.Errorf("TS KStest specificity %v should trail SDS %v", ks.Spec.Median, sds.Spec.Median)
	}
}

func TestFig14OverheadShape(t *testing.T) {
	rows, err := Fig14Overhead([]string{"KM"})
	if err != nil {
		t.Fatal(err)
	}
	norm := map[string]float64{}
	for _, r := range rows {
		norm[r.Detector] = r.Normalized
	}
	// Paper Fig. 14: SDS 1-2%, DNN 2-5%, KStest 3-8%.
	if o := norm["SDS"] - 1; o < 0.005 || o > 0.03 {
		t.Errorf("SDS overhead = %v, want 1-2%%", o)
	}
	if o := norm["DNN"] - 1; o < 0.02 || o > 0.06 {
		t.Errorf("DNN overhead = %v, want 2-5%%", o)
	}
	if o := norm["KStest"] - 1; o < 0.03 || o > 0.09 {
		t.Errorf("KStest overhead = %v, want 3-8%%", o)
	}
	if !(norm["SDS"] < norm["DNN"] && norm["DNN"] < norm["KStest"]) {
		t.Errorf("overhead ordering violated: %v", norm)
	}
	// Bit for bit: every row but KStest is 1 + its typed charge; KStest
	// adds the simulated throttling. Moving the cost model must not move
	// these.
	want := []Fig14Row{
		{"KM", "SDS", 1.0183333333333333},
		{"KM", "SDS/B", 1.0122},
		{"KM", "SDS/P", 1.0152666666666665},
		{"KM", "DNN", 1.0363333333333333},
		{"KM", "KStest", 1.0604666666666667},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestCharge(t *testing.T) {
	params := core.DefaultParams()
	profile := func(app string) core.Profile {
		t.Helper()
		prof, err := profileFor(app, params)
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	build := func(det core.Detector, err error) core.Detector {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	km, fn := profile("KM"), profile("FN")
	for _, tc := range []struct {
		name string
		det  core.Detector
		want float64
	}{
		// SDS on a non-periodic app is SDS/B alone and pays SDS/B's.
		{"SDS on KM", build(core.NewSDS(km, params)), 0.012},
		{"SDS on FN", build(core.NewSDS(fn, params)), 0.018},
		{"SDS/B", build(core.NewSDSB(km, params)), 0.012},
		{"SDS/P", build(core.NewSDSP(fn, params)), 0.015},
		{"KStest", build(core.NewKSTestDetector(core.EvaluationKSParams(), nil)), 0.02},
		// The charge does not look at the weights, so no cascade is trained.
		{"DNN", &core.DNNDetector{}, 0.035},
		{"RawThreshold", build(core.NewRawThreshold(0.5)), 0.001},
	} {
		if got := charge(tc.det); got != tc.want {
			t.Errorf("charge(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if sdsCharge(km.Periodic) != 0.012 || sdsCharge(fn.Periodic) != 0.018 {
		t.Errorf("sdsCharge from the profiles = %v (KM), %v (FN)", sdsCharge(km.Periodic), sdsCharge(fn.Periodic))
	}
}

// sweepFor returns the Sweeps row for a -param name.
func sweepFor(param string) Sweep {
	for _, s := range Sweeps {
		if s.Param == param {
			return s
		}
	}
	panic("no sweep " + param)
}

func TestSweepAlphaSmoke(t *testing.T) {
	pts, err := sweepFor("alpha").Run("KM", []float64{0.2, 0.8}, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Recall < 0.9 || p.Specificity < 0.85 {
			t.Errorf("alpha=%v accuracy degraded: %+v", p.Value, p)
		}
	}
}

func TestSweepKShape(t *testing.T) {
	pts, err := sweepFor("k").Run("KM", []float64{1.125, 1.5}, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	// Larger k -> smaller HC -> shorter delay (Fig. 18b).
	if !(pts[1].Delay < pts[0].Delay) {
		t.Errorf("delay should shrink with k: %v vs %v", pts[0].Delay, pts[1].Delay)
	}
}

func TestSweepDWShape(t *testing.T) {
	pts, err := sweepFor("dw").Run("KM", []float64{20, 200}, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 21b: delay grows with the sliding step.
	if !(pts[0].Delay < pts[1].Delay) {
		t.Errorf("delay should grow with DW: %v vs %v", pts[0].Delay, pts[1].Delay)
	}
}

func TestSweepWPShape(t *testing.T) {
	pts, err := sweepFor("wp").Run("FN", []float64{2, 6}, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 23b: delay grows with W_P.
	if !(pts[0].Delay < pts[1].Delay) {
		t.Errorf("delay should grow with WP: %v vs %v", pts[0].Delay, pts[1].Delay)
	}
}

// silentDetector decides "no alarm" on every sample.
type silentDetector struct{}

func (silentDetector) Name() string { return "silent" }

func (silentDetector) Push(s pcm.Sample) []core.Decision {
	return []core.Decision{{Time: s.Time}}
}

// A sweep point whose detector never fires has no detection delay to
// report: Delay is NaN, not the zero an empty mean would give.
func TestSweepNeverDetectedDelayIsNaN(t *testing.T) {
	s := Sweep{Param: "silent", set: setAlpha,
		factory: func(*Env) (core.Detector, error) { return silentDetector{}, nil }}
	pts, err := s.Run("KM", []float64{0.8}, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	if p := pts[0]; p.Recall != 0 || p.Specificity != 1 || !math.IsNaN(p.Delay) {
		t.Errorf("never-alarming sweep point = %+v, want recall 0, specificity 1, delay NaN", p)
	}
}

// The detector sets are in name order: CompareDetectors emits cells in
// set order, and memdos compare and report print them sorted by name.
func TestFactorySetsNameOrdered(t *testing.T) {
	byName := func(a, b NamedFactory) int { return strings.Compare(a.Name, b.Name) }
	for _, withDNN := range []bool{false, true} {
		for _, dets := range [][]NamedFactory{StandardFactories(withDNN), PeriodicFactories(withDNN)} {
			if !slices.IsSortedFunc(dets, byName) {
				t.Errorf("withDNN=%v: %d detectors not in name order", withDNN, len(dets))
			}
		}
	}
}

// Every grid refuses an empty seed list instead of aggregating nothing
// into zeros and NaN.
func TestEmptySeedsRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"CompareDetectors", func() error {
			_, err := CompareDetectors([]string{"KM"}, StandardFactories(false), BusLock, false, nil)
			return err
		}},
		{"Sweep", func() error {
			_, err := sweepFor("alpha").Run("KM", []float64{0.2}, nil)
			return err
		}},
		{"AblationRawThreshold", func() error {
			_, err := AblationRawThreshold("TS", []uint64{})
			return err
		}},
		{"Fig1KStestFalsePositives", func() error {
			_, err := Fig1KStestFalsePositives(120, nil)
			return err
		}},
		{"scoreGrid/no cells", func() error {
			_, err := scoreGrid(nil, []uint64{1})
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: empty list accepted", tc.name)
		}
	}
}

func TestAblationRawThreshold(t *testing.T) {
	accs, err := AblationRawThreshold("TS", []uint64{8})
	if err != nil {
		t.Fatal(err)
	}
	// The coarse threshold only sees the attack transition, never the
	// attacked steady state: near-zero recall.
	if a := accs["naive-coarse"]; a.Recall > 0.2 {
		t.Errorf("coarse naive recall = %v, expected near zero", a.Recall)
	}
	// The fine threshold reacts to raw noise: poor specificity.
	if a := accs["naive-fine"]; a.Specificity > 0.7 {
		t.Errorf("fine naive specificity = %v, expected poor", a.Specificity)
	}
	if a := accs["SDS"]; a.Recall < 0.95 || a.Specificity < 0.9 {
		t.Errorf("SDS accuracy = %+v", a)
	}
}

func TestPeriodEstimatorAblation(t *testing.T) {
	dftErr, acfErr, bothErr, err := PeriodEstimatorAblation("FN", []uint64{9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if bothErr > 0.15 {
		t.Errorf("DFT-ACF error = %v", bothErr)
	}
	// The combination should not be worse than both constituents.
	if bothErr > dftErr+0.05 && bothErr > acfErr+0.05 {
		t.Errorf("DFT-ACF (%v) worse than both DFT (%v) and ACF (%v)", bothErr, dftErr, acfErr)
	}
}

func TestMicrosimCalibration(t *testing.T) {
	micro, fast, err := MicrosimCalibration()
	if err != nil {
		t.Fatal(err)
	}
	// Both substrates must agree on direction (severalfold miss
	// inflation) and rough magnitude.
	if micro < 2 {
		t.Errorf("microsim inflation = %v, want >= 2", micro)
	}
	if fast < 2 {
		t.Errorf("fast-model inflation = %v, want >= 2", fast)
	}
	ratio := micro / fast
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("substrates disagree: micro %v vs fast %v", micro, fast)
	}
}

func TestMigrationStudyShape(t *testing.T) {
	res, err := MigrationStudy("KM", 60, 600, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Without a response the attack runs ~95% of the time; with
	// detect-and-migrate it is reduced but far from eliminated, because
	// the attacker re-co-locates (the paper's Section II argument).
	if res.AttackedFractionNoResponse < 0.9 {
		t.Errorf("no-response attacked fraction = %v", res.AttackedFractionNoResponse)
	}
	if res.Migrations < 3 {
		t.Errorf("only %d migrations over 600s", res.Migrations)
	}
	if res.AttackedFraction >= res.AttackedFractionNoResponse {
		t.Errorf("migration did not reduce attacked time: %v vs %v",
			res.AttackedFraction, res.AttackedFractionNoResponse)
	}
	if res.AttackedFraction < 0.1 {
		t.Errorf("attacked fraction %v: migration should NOT defeat the attack", res.AttackedFraction)
	}
	if res.MeanSpeedWithResponse <= res.MeanSpeedNoResponse {
		t.Errorf("speeds: with %v, without %v", res.MeanSpeedWithResponse, res.MeanSpeedNoResponse)
	}
}

func TestMigrationStudyValidation(t *testing.T) {
	if _, err := MigrationStudy("KM", 0, 600, 1); err == nil {
		t.Error("zero relocation delay accepted")
	}
	if _, err := MigrationStudy("KM", 60, 30, 1); err == nil {
		t.Error("dur < delay accepted")
	}
}

func TestContainerStudy(t *testing.T) {
	for _, mode := range []AttackMode{BusLock, Cleansing} {
		res, err := ContainerStudy(mode, 600, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.AttackedThroughput >= 0.7*res.CleanThroughput {
			t.Errorf("%v: throughput %v -> %v, insufficient impact", mode, res.CleanThroughput, res.AttackedThroughput)
		}
		if res.Accuracy.Recall < 0.85 {
			t.Errorf("%v: SDS/U recall on function aggregate = %v", mode, res.Accuracy.Recall)
		}
		if res.Accuracy.Specificity < 0.95 {
			t.Errorf("%v: SDS/U specificity = %v", mode, res.Accuracy.Specificity)
		}
		if res.SamplesPerInstance > 200 {
			t.Errorf("premise: %d samples per instance should be <= W", res.SamplesPerInstance)
		}
	}
}

func TestContainerStudyValidation(t *testing.T) {
	if _, err := ContainerStudy(NoAttack, 600, 1); err == nil {
		t.Error("no-attack study accepted")
	}
	if _, err := ContainerStudy(BusLock, 60, 1); err == nil {
		t.Error("too-short study accepted")
	}
}

// smallReport is the report's shape at a unit test's cost: one periodic
// app, so the SDS/B and SDS/P rows are measured, and one seed. Fig. 14
// costs a fixed simulated horizon per app, so one app is the cheapest.
var smallReport = reportScale{apps: []string{"PCA"}, seeds: []uint64{1}}

// smallRenders holds writeReport's output at smallReport by worker count,
// so the report tests share renders: one costs about a minute under -race.
var smallRenders = map[int]string{}

// renderSmallReport renders smallReport with the process-wide parallelism
// forced to workers, once per worker count.
func renderSmallReport(t *testing.T, workers int) string {
	t.Helper()
	if out, ok := smallRenders[workers]; ok {
		return out
	}
	prev := par.SetParallelism(workers)
	defer par.SetParallelism(prev)
	var buf strings.Builder
	if err := writeReport(&buf, smallReport, false); err != nil {
		t.Fatal(err)
	}
	smallRenders[workers] = buf.String()
	return buf.String()
}

func TestWriteReport(t *testing.T) {
	out := renderSmallReport(t, 8)
	// Every paper row is rendered once, with the paper's text beside its
	// label. The table is keyed by section, so a label may repeat across
	// sections, but never with the same paper text.
	for section, rows := range paperTable {
		for _, row := range rows {
			cell := "| " + row.label + " | " + row.paper + " | "
			if got := strings.Count(out, cell); got != 1 {
				t.Errorf("%s row %q rendered %d times, want 1", section, row.label, got)
			}
		}
	}
	for _, want := range []string{
		"| W | 200 | 200 |",
		"| Chebyshev confidence of (k, H_C) | 99.9 % | 99.9 % |",
		"| SDS/B minimum delay | H_C·ΔW·T_PCM | 15 s |",
		"| SDS/P minimum delay | H_P·ΔW_P·ΔW·T_PCM | 25 s |",
		"| DNN recall | 90–95 % | " + needsDNN + " |",
		"| 20 (dnnw) | accuracy ~flat, delay grows | " + needsDNN + " |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The stand-alone SDS/B and SDS/P rows are measured on the periodic
	// PCA: they read numbers, not NaN.
	for _, row := range []string{"SDS/B specificity, periodic apps", "SDS/P specificity, periodic apps", "SDS/P, periodic apps"} {
		line := out[strings.Index(out, "| "+row+" |"):]
		if line = line[:strings.Index(line, "\n")]; strings.Contains(line, "NaN") {
			t.Errorf("periodic-only row not measured: %s", line)
		}
	}
}
