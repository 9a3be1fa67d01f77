package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"memdos/internal/core"
	"memdos/internal/trace"
	"memdos/internal/workload"
)

// ReportConfig scales the one-shot report.
type ReportConfig struct {
	// Seeds per experiment (1 = fastest).
	Seeds []uint64
	// Apps for the detector comparison (subset keeps the report quick).
	Apps []string
	// WithDNN includes the DNN detector (trains the shared cascade on
	// first use — minutes of CPU).
	WithDNN bool
}

// WriteReport runs the core experiment set and writes a self-contained
// markdown report to w. It is the programmatic face of `memdos report`.
// elapsed supplies the wall time consumed so far (nil omits the
// footer timing): experiments is a deterministic package, so the clock
// read stays with the caller.
func WriteReport(w io.Writer, cfg ReportConfig, elapsed func() time.Duration) error {
	if len(cfg.Seeds) == 0 || len(cfg.Apps) == 0 {
		return fmt.Errorf("experiments: report needs seeds and apps")
	}
	p := func(format string, args ...interface{}) {
		fmt.Fprintf(w, format, args...)
	}
	p("# memdos experiment report\n\n")
	p("Apps: %v · seeds: %v · DNN: %v\n\n", cfg.Apps, cfg.Seeds, cfg.WithDNN)

	// 1. Detection parameters and their derived guarantees (Table I).
	dp := core.DefaultParams()
	p("## Detection parameters (Table I)\n\n")
	p("| W | ΔW | α | k | H_C | W_P | ΔW_P | H_P | H_D |\n|---|---|---|---|---|---|---|---|---|\n")
	p("| %d | %d | %g | %g | %d | %d × period | %d | %d | %d |\n\n",
		dp.W, dp.DW, dp.Alpha, dp.K, dp.HC, dp.WPFactor, dp.DWP, dp.HP, dp.HD)
	p("Chebyshev confidence %.3f; minimum detection delay %.0f s (SDS/B), %.0f s (SDS/P) at T_PCM = %g s.\n\n",
		dp.Confidence(), dp.MinDetectionDelayB(), dp.MinDetectionDelayP(), dp.TPCM)

	// 2. KStest false positives (Fig. 1).
	fig1, err := Fig1KStestFalsePositives(600, cfg.Seeds)
	if err != nil {
		return err
	}
	p("## KStest false positives, no attack (Fig. 1 / §III-B)\n\n")
	p("| App | false-alarm rate |\n|---|---|\n")
	for _, r := range fig1.Rows {
		p("| %s | %.0f%% |\n", r.App, 100*r.FalseAlarmRate)
	}
	p("\n")

	// 3. Measurement traces (Figs. 2-6), with sparklines.
	p("## Attack impact traces (Figs. 2–6)\n\n")
	for _, app := range cfg.Apps {
		for _, mode := range []AttackMode{BusLock, Cleansing} {
			tr, err := MeasurementTrace(app, mode, cfg.Seeds[0])
			if err != nil {
				return err
			}
			channel, label := tr.Access, "AccessNum"
			if mode == Cleansing {
				channel, label = tr.Miss, "MissNum"
			}
			p("`%-5s %-13v` %s `%s` %.0f → %.0f (%.2fx)\n\n",
				app, mode, label, trace.Sparkline(channel, 60),
				tr.BeforeMean, tr.DuringMean, tr.DuringMean/tr.BeforeMean)
		}
	}

	// 4. Detector comparison, both scenarios (Figs. 11-13, 15-16), in
	// app-name order. Scenario 1 adds the stand-alone SDS/B and SDS/P rows
	// on the periodic apps.
	apps := slices.Clone(cfg.Apps)
	slices.Sort(apps)
	for _, adaptive := range []bool{false, true} {
		scenario := "Scenario 1 (Figs. 11–13)"
		if adaptive {
			scenario = "Scenario 2, adaptive (Figs. 15–16)"
		}
		p("## Detector comparison — %s\n\n", scenario)
		p("| App | Scheme | Recall | Specificity | Delay (s) |\n|---|---|---|---|---|\n")
		for _, app := range apps {
			dets := StandardFactories(cfg.WithDNN)
			if !adaptive && slices.Contains(workload.PeriodicAbbrevs(), app) {
				dets = PeriodicFactories(cfg.WithDNN)
			}
			cells, err := CompareDetectors([]string{app}, dets, BusLock, adaptive, cfg.Seeds)
			if err != nil {
				return err
			}
			for _, c := range cells {
				p("| %s | %s | %.3f | %.3f | %.1f |\n",
					c.App, c.Detector, c.Recall.Median, c.Spec.Median, c.Delay)
			}
		}
		p("\n")
	}

	// 5. Overhead (Fig. 14).
	p("## Performance overhead (Fig. 14)\n\n")
	p("| App | Scheme | Normalized exec time |\n|---|---|---|\n")
	overheadApps := cfg.Apps
	if len(overheadApps) > 2 {
		overheadApps = overheadApps[:2]
	}
	rows, err := Fig14Overhead(overheadApps)
	if err != nil {
		return err
	}
	for _, r := range rows {
		p("| %s | %s | %.3f |\n", r.App, r.Detector, r.Normalized)
	}
	p("\n")

	// 6. Extensions.
	p("## Extensions\n\n")
	mig, err := MigrationStudy("KM", 60, 600, cfg.Seeds[0])
	if err != nil {
		return err
	}
	p("* **Migration response**: %d migrations; time under attack %.0f%% → %.0f%%; migration mitigates but cannot defeat the attack.\n",
		mig.Migrations, 100*mig.AttackedFractionNoResponse, 100*mig.AttackedFraction)
	cont, err := ContainerStudy(BusLock, 600, cfg.Seeds[0])
	if err != nil {
		return err
	}
	p("* **Containers (Sec. VIII)**: invocation throughput %.2f/s → %.2f/s under bus locking; SDS/U on the per-function aggregate: recall %.2f, specificity %.2f.\n",
		cont.CleanThroughput, cont.AttackedThroughput, cont.Accuracy.Recall, cont.Accuracy.Specificity)
	micro, fast, err := MicrosimCalibration()
	if err != nil {
		return err
	}
	p("* **Substrate calibration**: cleansing miss inflation %.1fx (microsim) vs %.1fx (fast model).\n", micro, fast)

	if elapsed != nil {
		p("\n_Generated in %s by `memdos report`; every number is deterministic given the seeds._\n",
			elapsed().Round(time.Millisecond))
	}
	return nil
}
