package experiments

import (
	"fmt"

	"memdos/internal/core"
	"memdos/internal/metrics"
	"memdos/internal/par"
	"memdos/internal/period"
	"memdos/internal/stats"
	"memdos/internal/trace"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// ---------------------------------------------------------------------------
// Fig. 1 + Section III-B: KStest false positives with no attack.
// ---------------------------------------------------------------------------

// Fig1Row is one application's no-attack KStest false-alarm rate.
type Fig1Row struct {
	App string
	// FalseAlarmRate is the fraction of L_R intervals in which KStest
	// declared an attack despite none running.
	FalseAlarmRate float64
}

// Fig1Result reproduces Fig. 1 and the Section III-B rates.
type Fig1Result struct {
	Rows []Fig1Row
	// TeraSortFlags is the per-test KS rejection flag time-line for
	// TeraSort (the four-panel Fig. 1 plot): one entry per KS test, true
	// when the test rejected.
	TeraSortFlags []bool
	// FlagTimes are the matching test timestamps.
	FlagTimes []float64
}

// Fig1KStestFalsePositives runs every application for dur seconds with no
// attack under the Section III-B KStest protocol and measures per-interval
// false alarms, averaged over seeds. The (app, seed) cells run on the
// parallel Runner; each cell owns its server and seed, so the merged rows
// are identical to a serial sweep.
func Fig1KStestFalsePositives(dur float64, seeds []uint64) (*Fig1Result, error) {
	if dur < 60 || len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: Fig1 needs at least 60s runs and one seed")
	}
	ksParams := core.DefaultKSParams()
	intervalsPerRun := int(dur / ksParams.LR)
	apps := workload.Abbrevs()

	type cell struct {
		alarmed int
		// flags/times are only filled by the TeraSort first-seed cell
		// (the four-panel Fig. 1 time-line).
		flags []bool
		times []float64
	}
	cells, err := par.MapCells(par.DefaultRunner(), len(apps)*len(seeds), func(i int) (cell, error) {
		app := apps[i/len(seeds)]
		seed := seeds[i%len(seeds)]
		recordFlags := app == "TS" && seed == seeds[0]
		var out cell
		tb, err := buildServer(RunSpec{App: app, Seed: seed, Service: true})
		if err != nil {
			return out, err
		}
		det, err := core.NewKSTestDetector(ksParams, func(d float64) {
			tb.srv.ThrottleOthers(tb.victim.ID(), d)
		})
		if err != nil {
			return out, err
		}
		intervalAlarmed := make(map[int]bool)
		tb.srv.RunUntil(dur, func(step vmm.StepResult) {
			for _, d := range det.Push(step.Samples[tb.victim.ID()]) {
				if recordFlags {
					out.flags = append(out.flags, det.ConsecutiveRejections() > 0)
					out.times = append(out.times, d.Time)
				}
				if d.Alarm {
					intervalAlarmed[int(d.Time/ksParams.LR)] = true
				}
			}
		})
		out.alarmed = len(intervalAlarmed)
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{}
	for ai, app := range apps {
		alarmed, total := 0, 0
		for si := range seeds {
			c := cells[ai*len(seeds)+si]
			alarmed += c.alarmed
			total += intervalsPerRun
			if len(c.flags) > 0 {
				res.TeraSortFlags = c.flags
				res.FlagTimes = c.times
			}
		}
		res.Rows = append(res.Rows, Fig1Row{App: app, FalseAlarmRate: float64(alarmed) / float64(total)})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figs. 2-6: 120-second counter traces, attack starting at 60 s.
// ---------------------------------------------------------------------------

// TraceResult is one measurement-study trace.
type TraceResult struct {
	App  string
	Mode AttackMode
	// Access and Miss are the raw PCM series over the 120 s run.
	Access, Miss *trace.Series
	// BeforeMean/DuringMean summarize the attack-relevant channel
	// (AccessNum for bus locking, MissNum for cleansing) before and
	// during the attack.
	BeforeMean, DuringMean float64
	// Periods are the DFT-ACF period estimates (in MA samples) of the
	// clean and attacked halves, 0 when none is found and always 0 for
	// an app Table II lists as non-periodic.
	CleanPeriod, AttackedPeriod float64
}

// MeasurementTrace reproduces one panel of Figs. 2-6: 60 s clean + 60 s
// under the given attack.
func MeasurementTrace(app string, mode AttackMode, seed uint64) (*TraceResult, error) {
	if mode == NoAttack {
		return nil, fmt.Errorf("experiments: trace needs an attack mode")
	}
	spec := RunSpec{
		App: app, Mode: mode, Duration: 120, Seed: seed,
		UtilityVMs: 7, Service: true, AttackStart: 60,
	}
	tb, err := buildServer(spec)
	if err != nil {
		return nil, err
	}
	rec := tb.traceUntil(spec.Duration)
	res := &TraceResult{App: app, Mode: mode, Access: rec.access, Miss: rec.miss}

	channel := res.Access
	if mode == Cleansing {
		channel = res.Miss
	}
	res.BeforeMean = channel.Window(5, 60).Mean()
	res.DuringMean = channel.Window(65, 120).Mean()

	if !isPeriodic(app) {
		// The estimator can find a period in a non-periodic app's noise;
		// only Table II's periodic apps have one to report.
		return res, nil
	}
	params := core.DefaultParams()
	est := period.NewEstimator(period.DefaultEstimatorConfig())
	cleanMA := stats.MA(res.Access.Window(0, 60).Values, params.W, params.DW)
	attackedMA := stats.MA(res.Access.Window(60, 120).Values, params.W, params.DW)
	if p := est.Estimate(cleanMA); p.Periodic {
		res.CleanPeriod = p.Period
	}
	if p := est.Estimate(attackedMA); p.Periodic {
		res.AttackedPeriod = p.Period
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 7: SDS/B detection example on k-means.
// ---------------------------------------------------------------------------

// Fig7Result is the SDS/B detection example.
type Fig7Result struct {
	// EWMA is the monitored EWMA time series (one value per MA window).
	EWMA []float64
	// Lower and Upper are the profiled normal range.
	Lower, Upper float64
	// AlarmWindow is the index of the EWMA window at which the alarm
	// first fired (-1 if never).
	AlarmWindow int
	// AttackWindow is the window index at which the attack started.
	AttackWindow int
}

// Fig7SDSBExample reproduces the k-means bus-locking detection example.
func Fig7SDSBExample() (*Fig7Result, error) {
	params := core.DefaultParams()
	prof, err := profileFor("KM", params)
	if err != nil {
		return nil, err
	}
	spec := DefaultRunSpec("KM", BusLock, 5)
	spec.Duration, spec.AttackStart = 160, 75
	tb, err := buildServer(spec)
	if err != nil {
		return nil, err
	}
	det, err := core.NewSDSB(prof, params)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{AlarmWindow: -1}
	res.Lower, res.Upper = prof.AccessBounds(params.K)
	widx := 0
	tb.srv.RunUntil(spec.Duration, func(step vmm.StepResult) {
		for _, d := range det.Push(step.Samples[tb.victim.ID()]) {
			acc, _ := det.EWMAValues()
			res.EWMA = append(res.EWMA, acc)
			if d.Time >= 75 && res.AttackWindow == 0 {
				res.AttackWindow = widx
			}
			if d.Alarm && res.AlarmWindow < 0 {
				res.AlarmWindow = widx
			}
			widx++
		}
	})
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 8: SDS/P detection example on FaceNet.
// ---------------------------------------------------------------------------

// Fig8Result is the SDS/P detection example.
type Fig8Result struct {
	// MA is the monitored moving-average series.
	MA []float64
	// Periods are SDS/P's period estimates (MA samples; 0 = no period
	// found), one per evaluation, with EvalWindows their window indices.
	Periods     []float64
	EvalWindows []int
	// NormalPeriod is the profiled period.
	NormalPeriod float64
	// AlarmWindow is the MA-window index of the first alarm (-1 never).
	AlarmWindow int
	// AttackWindow is the MA-window index when the attack started.
	AttackWindow int
}

// Fig8SDSPExample reproduces the FaceNet period-detection example.
func Fig8SDSPExample() (*Fig8Result, error) {
	params := core.DefaultParams()
	prof, err := profileFor("FN", params)
	if err != nil {
		return nil, err
	}
	if !prof.Periodic {
		return nil, fmt.Errorf("experiments: FaceNet profile not periodic: %+v", prof)
	}
	spec := DefaultRunSpec("FN", BusLock, 6)
	spec.Duration, spec.AttackStart = 240, 120
	tb, err := buildServer(spec)
	if err != nil {
		return nil, err
	}
	det, err := core.NewSDSP(prof, params)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{NormalPeriod: prof.Period, AlarmWindow: -1}
	ma := stats.NewMAStream(params.W, params.DW)
	widx := 0
	tb.srv.RunUntil(spec.Duration, func(step vmm.StepResult) {
		s := step.Samples[tb.victim.ID()]
		if avg, _, ok := ma.Push(s.AccessNum, 0); ok {
			res.MA = append(res.MA, avg)
			if s.Time >= 120 && res.AttackWindow == 0 {
				res.AttackWindow = widx
			}
			widx++
		}
		for _, d := range det.Push(s) {
			res.Periods = append(res.Periods, det.LastPeriod())
			res.EvalWindows = append(res.EvalWindows, widx)
			if d.Alarm && res.AlarmWindow < 0 {
				res.AlarmWindow = widx
			}
		}
	})
	return res, nil
}

// ---------------------------------------------------------------------------
// Figs. 11-13 (Scenario 1) and Figs. 15-16 (Scenario 2).
// ---------------------------------------------------------------------------

// ComparisonCell is one (app, detector) accuracy summary over seeds.
type ComparisonCell struct {
	App      string
	Detector string
	Recall   metrics.Summary
	Spec     metrics.Summary
	// Delay is the mean detection delay across seeds (seconds; NaN if
	// never detected).
	Delay float64
}

// CompareDetectors runs the given apps x detectors under one attack mode
// and scenario, over the seeds, and aggregates accuracy like the paper's
// box plots (median, 10th, 90th percentile). Each detector gets its own
// run, as in the paper: the schemes are alternative deployments, and the
// KStest baseline's execution throttling must not contaminate the others'
// sample streams (nor their overheads stack). Cells come out in app
// order, then in the detector set's order.
func CompareDetectors(apps []string, dets []NamedFactory, mode AttackMode, adaptive bool, seeds []uint64) ([]ComparisonCell, error) {
	params := core.DefaultParams()
	var grid []gridCell
	for _, app := range apps {
		for _, d := range dets {
			spec := DefaultRunSpec(app, mode, 0)
			spec.Adaptive = adaptive
			grid = append(grid, gridCell{spec: spec, params: params, factory: d.Factory})
		}
	}
	accs, err := scoreGrid(grid, seeds)
	if err != nil {
		return nil, err
	}
	cells := make([]ComparisonCell, len(grid))
	for i, a := range accs {
		acc, spc, dly := finite(a)
		cell := ComparisonCell{App: apps[i/len(dets)], Detector: dets[i%len(dets)].Name, Delay: metrics.MeanDelay(dly)}
		if len(acc) > 0 {
			cell.Recall = metrics.Summarize(acc)
		}
		if len(spc) > 0 {
			cell.Spec = metrics.Summarize(spc)
		}
		cells[i] = cell
	}
	return cells, nil
}

// ---------------------------------------------------------------------------
// Fig. 14: performance overhead.
// ---------------------------------------------------------------------------

// Fig14Row is the normalized execution time of one app under one detection
// scheme.
type Fig14Row struct {
	App        string
	Detector   string
	Normalized float64
}

// fig14Charge is the Fig. 14 cost model: the hypervisor CPU fraction each
// scheme's processing is charged, by detector name. The values are chosen
// inside the paper's bands, not measured. Execution throttling, KStest's
// dominant cost, is not in the table: the hypervisor inflicts it
// physically. Run, closedLoopRun, ClusterStudy, MigrationStudy and
// Fig14Overhead all charge from here.
var fig14Charge = map[string]float64{
	// SDS is below the sum of its parts: SDS/B and SDS/P share the MA
	// pipeline.
	"SDS":   0.018,
	"SDS/B": 0.012,
	// SDS/P is slightly above SDS/B: the DFT-ACF recomputation is its
	// dominant cost.
	"SDS/P": 0.015,
	// Per-window inference (the paper reports 2-5%).
	"DNN": 0.035,
	// The repeated KS tests only.
	"KStest": 0.02,
	// The naive detector of the raw-threshold ablation; no Fig. 14 row.
	"RawThreshold": 0.001,
}

// fig14Schemes are Fig. 14's rows, in the figure's order.
var fig14Schemes = []string{"SDS", "SDS/B", "SDS/P", "DNN", "KStest"}

// charge maps a built detector to its hypervisor charge. SDS without
// SDS/P (a non-periodic application) is SDS/B alone and pays SDS/B's; a
// detector the table does not name pays nothing.
func charge(det core.Detector) float64 {
	if sds, ok := det.(*core.SDS); ok {
		return sdsCharge(sds.Periodic())
	}
	return fig14Charge[det.Name()]
}

// sdsCharge is SDS's charge on an application whose profile is (or is
// not) periodic: SDS/P runs, and is paid for, only on a periodic one.
func sdsCharge(periodic bool) float64 {
	if periodic {
		return fig14Charge["SDS"]
	}
	return fig14Charge["SDS/B"]
}

// Fig14Overhead measures normalized execution times (victim runs to
// completion; no attack) under each detection scheme. Every (app, scheme)
// completion run — including each app's baseline — is one parallel cell.
func Fig14Overhead(apps []string) ([]Fig14Row, error) {
	params := core.DefaultParams()
	// Cell layout per app: index 0 is the no-detector baseline, then one
	// cell per scheme.
	perApp := 1 + len(fig14Schemes)
	times, err := par.MapCells(par.DefaultRunner(), len(apps)*perApp, func(i int) (float64, error) {
		app := apps[i/perApp]
		j := i % perApp
		if j == 0 {
			return completionTime(app, 0, false, params)
		}
		name := fig14Schemes[j-1]
		return completionTime(app, fig14Charge[name], name == "KStest", params)
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig14Row
	for ai, app := range apps {
		baseline := times[ai*perApp]
		for si, name := range fig14Schemes {
			norm, err := metrics.NormalizedExecTime(baseline, times[ai*perApp+1+si])
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig14Row{App: app, Detector: name, Normalized: norm})
		}
	}
	return rows, nil
}

// completionTime runs the app to completion on a server carrying the given
// detector load and returns the finish time.
func completionTime(app string, cpu float64, throttled bool, params core.Params) (float64, error) {
	cfg := vmm.DefaultConfig()
	cfg.Seed = 17
	srv, err := vmm.NewServer(cfg)
	if err != nil {
		return 0, err
	}
	spec := workload.MustByAbbrev(app) // finite WorkSeconds
	victim, err := srv.AddApp("victim", spec)
	if err != nil {
		return 0, err
	}
	// The protected VM is a *different* VM: the measured app is a benign
	// co-located neighbour, which is who throttling and detector load
	// hurt (Fig. 14 measures "applications running on the VMs" while the
	// hypervisor runs detection for a protected VM).
	protected, err := srv.AddApp("protected", workload.MustByAbbrev("KM").Service())
	if err != nil {
		return 0, err
	}
	for i := 0; i < 6; i++ {
		if _, err := srv.AddApp(fmt.Sprintf("util%d", i), workload.Utility()); err != nil {
			return 0, err
		}
	}
	if cpu > 0 {
		if err := srv.SetHypervisorLoad(cpu); err != nil {
			return 0, err
		}
	}
	var ks *core.KSTestDetector
	if throttled {
		ks, err = core.NewKSTestDetector(core.EvaluationKSParams(), func(d float64) {
			srv.ThrottleOthers(protected.ID(), d)
		})
		if err != nil {
			return 0, err
		}
	}
	// DoneAt is fixed once the victim completes, so the run stops there.
	const horizon = 4000.0
	for !victim.Completed() && srv.Now() < horizon {
		step := srv.Step()
		if ks != nil {
			ks.Push(step.Samples[protected.ID()])
		}
	}
	if !victim.Completed() {
		return 0, fmt.Errorf("experiments: %s did not complete within %v s", app, horizon)
	}
	return victim.DoneAt(), nil
}

// ---------------------------------------------------------------------------
// Helpers shared with the CLI.
// ---------------------------------------------------------------------------

// NamedFactory is one detector of a comparison set.
type NamedFactory struct {
	Name    string
	Factory DetectorFactory
}

// StandardFactories returns the detector set of the Section VI
// comparison, in name order. DNN training is triggered lazily on first
// use.
func StandardFactories(withDNN bool) []NamedFactory {
	fs := []NamedFactory{{"KStest", KSFactory}, {"SDS", SDSFactory}}
	if withDNN {
		fs = append([]NamedFactory{{"DNN", DNNFactory}}, fs...)
	}
	return fs
}

// PeriodicFactories adds the stand-alone SDS/B and SDS/P detectors used on
// the periodic applications in Figs. 11-13, keeping name order.
func PeriodicFactories(withDNN bool) []NamedFactory {
	return append(StandardFactories(withDNN), NamedFactory{"SDS/B", SDSBFactory}, NamedFactory{"SDS/P", SDSPFactory})
}
