package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"memdos/internal/core"
	"memdos/internal/workload"
)

// paperRow is one row of the report: its label and what the paper reports
// for it, rendered as the row's "Paper" column.
type paperRow struct {
	label, paper string
}

// paperTable holds the paper's side of every paper-vs-measured row, by
// report section, in the order the report prints them. The measured side
// comes from the run; a row the run leaves unmeasured fails the report.
var paperTable = map[string][]paperRow{
	"Table I": {
		{"T_PCM", "0.01 s"},
		{"W", "200"},
		{"ΔW", "50"},
		{"α", "0.2"},
		{"k", "1.125"},
		{"H_C", "30"},
		{"W_P", "2 × period"},
		{"ΔW_P", "10"},
		{"H_P", "5"},
		{"H_D", "5"},
		{"Chebyshev confidence of (k, H_C)", "99.9 %"},
		{"SDS/B minimum delay", "H_C·ΔW·T_PCM"},
		{"SDS/P minimum delay", "H_P·ΔW_P·ΔW·T_PCM"},
	},
	"Table II": {
		{"Applications", "BA, SVM, KM, PCA, TS, Aggre, Join, Scan, PR, FN"},
		{"Periodic", "PCA, FN"},
	},
	"Fig. 1": {
		{"TS", "60 %"},
		{"PCA", "60 %"},
		{"FN", "55 %"},
		{"Aggre", "40 %"},
		{"Scan", "40 %"},
		{"Join", "(not given)"},
		{"SVM", "35 %"},
		{"BA", "30 %"},
		{"PR", "30 %"},
		{"KM", "20 %"},
	},
	"Figs. 2–6": {
		{"Mean AccessNum retention, bus lock", "significant drop"},
		{"Mean MissNum inflation, cleansing", "severalfold rise in every panel"},
		{"Periodic apps' period, clean → bus lock / cleansing", "elongated (Observation 2)"},
	},
	"Fig. 7": {
		{"k-means normal range (AccessNum EWMA)", "(plotted)"},
		{"Attack → alarm, EWMA window", "mid-run → ~150"},
	},
	"Fig. 8": {
		{"FaceNet profiled period (MA windows)", "constant at around 17"},
		{"Attack → alarm, MA window", "alarm after H_P deviating evaluations"},
	},
	"Figs. 11–12": {
		{"SDS recall", "~100 % median"},
		{"KStest recall", "~100 % median"},
		{"DNN recall", "90–95 %"},
		{"SDS specificity", "90–100 %"},
		{"DNN specificity", "85–95 %"},
		{"KStest specificity", "30–80 %"},
		{"KStest specificity, non-periodic apps", "30–80 %"},
		{"KStest specificity, periodic apps", "30–80 %"},
		{"Largest per-app SDS − KStest specificity gap", "up to 65 points"},
		{"SDS/B recall, periodic apps", "(not given)"},
		{"SDS/P recall, periodic apps", "(not given)"},
		{"SDS/B specificity, periodic apps", "93–97 %"},
		{"SDS/P specificity, periodic apps", "93–97 %"},
	},
	"Fig. 13": {
		{"DNN", "5–10 s"},
		{"SDS", "15–30 s"},
		{"KStest", "20–50 s"},
		{"KStest, non-periodic apps", "20–50 s"},
		{"KStest, periodic apps", "20–50 s"},
		{"SDS/B, periodic apps", "(not given)"},
		{"SDS/P, periodic apps", "~10 s above SDS/B"},
	},
	"Fig. 14": {
		{"SDS", "1–2 %"},
		{"SDS/B", "~1 %"},
		{"SDS/P", "~1.5 %"},
		{"DNN", "2–5 %"},
		{"KStest", "3–8 %"},
	},
	"Figs. 15–16": {
		{"DNN recall", "80–95 %"},
		{"SDS recall", "worse than DNN"},
		{"KStest recall", "worse than DNN"},
		{"DNN specificity", "80–95 %"},
		{"SDS specificity", "worse than DNN"},
		{"KStest specificity", "worse than DNN"},
	},
	"Figs. 17–24": {
		{"17 (alpha)", "accuracy ~flat, delay shrinks slightly with α"},
		{"18 (k)", "spec up, delay down as k grows (H_C re-derived)"},
		{"19 (w)", "accuracy ~flat, delay grows"},
		{"20 (dnnw)", "accuracy ~flat, delay grows"},
		{"21 (dw)", "delay grows with ΔW"},
		{"22 (dnndw)", "delay grows with ΔW"},
		{"23 (wp)", "delay grows with W_P"},
		{"24 (dwp)", "delay grows with ΔW_P"},
	},
	"Ablations": {
		{"Raw threshold, coarse (0.5), TS", "§IV-A: cannot hold an alarm"},
		{"Raw threshold, fine (0.15), TS", "§IV-A: floods false positives"},
		{"SDS on the same runs", "MA + EWMA smoothing avoids both"},
		{"Period error, DFT / ACF / DFT-ACF, FN", "DFT-ACF avoids ACF's multiples"},
		{"Cleansing miss inflation, microsim / fast model", "(substrate check)"},
		{"Migration, KM: time under attack", "§II: migration alone is insufficient"},
		{"Migration, KM: victim mean speed", "§II: migration alone is insufficient"},
		{"Closed loop, KM, bus lock", "(beyond the paper)"},
		{"Closed loop, KM, cleansing", "(beyond the paper)"},
		{"Containers: invocations/s, bus lock", "§VIII: future work"},
		{"Containers: SDS/U on the per-function aggregate", "§VIII: future work"},
	},
}

// needsDNN is the measured cell of a DNN row in a report run without the
// DNN.
const needsDNN = "needs -dnn"

// reportScale is what the unit tests shrink: the apps of the per-app
// sections and the seeds of the multi-seed ones.
type reportScale struct {
	apps  []string
	seeds []uint64
}

// WriteReport runs the experiment set EXPERIMENTS.md is rendered from —
// the ten apps of Table II, seeds 1–3 — and writes its paper-vs-measured
// markdown to w. withDNN adds the DNN rows, training the shared cascade
// and the sweep cascades first (minutes of CPU); without it those rows
// read "needs -dnn". Every number is deterministic.
func WriteReport(w io.Writer, withDNN bool) error {
	return writeReport(w, reportScale{apps: workload.Abbrevs(), seeds: []uint64{1, 2, 3}}, withDNN)
}

func writeReport(w io.Writer, sc reportScale, withDNN bool) error {
	r := &report{scale: sc, dnn: withDNN}
	for _, section := range []func() error{
		r.tables, r.fig1, r.traces, r.examples, r.scenario1, r.fig14, r.scenario2, r.sweeps, r.ablations,
	} {
		if err := section(); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, r.b.String())
	return err
}

// report accumulates the rendered markdown; nothing reaches the writer
// unless every section ran.
type report struct {
	b     strings.Builder
	scale reportScale
	dnn   bool
}

func (r *report) p(format string, args ...any) { fmt.Fprintf(&r.b, format, args...) }

// table writes section's rows of paperTable with each row's measured cell.
func (r *report) table(section, measuredHeader string, measured map[string]string) error {
	r.p("| | Paper | %s |\n|---|---|---|\n", measuredHeader)
	for _, row := range paperTable[section] {
		m, ok := measured[row.label]
		if !ok {
			return fmt.Errorf("experiments: report row %q of %s not measured", row.label, section)
		}
		r.p("| %s | %s | %s |\n", row.label, row.paper, m)
	}
	r.p("\n")
	return nil
}

// tables renders the run's header line and Tables I and II.
func (r *report) tables() error {
	sc := r.scale
	dnnNote := "DNN rows need `-dnn`"
	if r.dnn {
		dnnNote = "DNN on"
	}
	r.p("Apps %s · seeds %v · %s. Each section names the `go run ./cmd/memdos` command that regenerates its numbers.\n\n",
		strings.Join(sc.apps, ", "), sc.seeds, dnnNote)

	dp := core.DefaultParams()
	r.p("## Table I — detection parameters\n\n`report` (`core.DefaultParams`)\n\n")
	if err := r.table("Table I", "Encoded", map[string]string{
		"T_PCM": fmt.Sprintf("%g s", dp.TPCM), "W": fmt.Sprint(dp.W), "ΔW": fmt.Sprint(dp.DW),
		"α": fmt.Sprint(dp.Alpha), "k": fmt.Sprint(dp.K), "H_C": fmt.Sprint(dp.HC),
		"W_P": fmt.Sprintf("%d × period", dp.WPFactor), "ΔW_P": fmt.Sprint(dp.DWP),
		"H_P": fmt.Sprint(dp.HP), "H_D": fmt.Sprint(dp.HD),
		"Chebyshev confidence of (k, H_C)": fmt.Sprintf("%.1f %%", 100*dp.Confidence()),
		"SDS/B minimum delay":              fmt.Sprintf("%.0f s", dp.MinDetectionDelayB()),
		"SDS/P minimum delay":              fmt.Sprintf("%.0f s", dp.MinDetectionDelayP()),
	}); err != nil {
		return err
	}

	r.p("## Table II — applications\n\n`apps`\n\n")
	return r.table("Table II", "Modelled", map[string]string{
		"Applications": strings.Join(workload.Abbrevs(), ", "),
		"Periodic":     strings.Join(slices.DeleteFunc(workload.Abbrevs(), steady), ", "),
	})
}

func (r *report) fig1() error {
	res, err := Fig1KStestFalsePositives(600, r.scale.seeds)
	if err != nil {
		return err
	}
	measured := map[string]string{}
	for _, row := range res.Rows {
		measured[row.App] = fmt.Sprintf("%.0f %%", 100*row.FalseAlarmRate)
	}
	r.p("## Fig. 1 — KStest false positives with no attack (§III-B)\n\n`fig1 -seeds %d`\n\n", len(r.scale.seeds))
	return r.table("Fig. 1", "False-alarm rate", measured)
}

// traces renders Figs. 2–6: each app's attacked channel, its mean during
// the attack over its mean before, and the periodic apps' period under
// either attack.
func (r *report) traces() error {
	seed := r.scale.seeds[0]
	r.p("## Figs. 2–6 — measurement-study traces\n\n`trace -app <A> -attack buslock|cleansing -seed %d`\n\n", seed)
	r.p("| App | AccessNum retention, bus lock | MissNum inflation, cleansing | Period, clean → bus lock / cleansing (MA windows) |\n|---|---|---|---|\n")
	var retention, inflation float64
	var periods []string
	for _, app := range r.scale.apps {
		lock, err := MeasurementTrace(app, BusLock, seed)
		if err != nil {
			return err
		}
		cleanse, err := MeasurementTrace(app, Cleansing, seed)
		if err != nil {
			return err
		}
		ret, inf := lock.DuringMean/lock.BeforeMean, cleanse.DuringMean/cleanse.BeforeMean
		retention += ret
		inflation += inf
		period := "—"
		if isPeriodic(app) {
			period = fmt.Sprintf("%s → %s / %s", fmtPeriod(lock.CleanPeriod), fmtPeriod(lock.AttackedPeriod), fmtPeriod(cleanse.AttackedPeriod))
			periods = append(periods, app+" "+period)
		}
		r.p("| %s | %.2f× | %.1f× | %s |\n", app, ret, inf, period)
	}
	r.p("\n")
	n := float64(len(r.scale.apps))
	return r.table("Figs. 2–6", "Measured", map[string]string{
		"Mean AccessNum retention, bus lock":                  fmt.Sprintf("%.2f×", retention/n),
		"Mean MissNum inflation, cleansing":                   fmt.Sprintf("%.1f×", inflation/n),
		"Periodic apps' period, clean → bus lock / cleansing": strings.Join(periods, "; "),
	})
}

// fmtPeriod renders a period estimate in MA windows, "none" when the
// estimator found no credible period.
func fmtPeriod(p float64) string {
	if p <= 0 {
		return "none"
	}
	return fmt.Sprintf("%.1f", p)
}

// examples renders the two single-run detection examples, Figs. 7 and 8.
func (r *report) examples() error {
	f7, err := Fig7SDSBExample()
	if err != nil {
		return err
	}
	r.p("## Fig. 7 — SDS/B detection example (k-means)\n\n`fig7`\n\n")
	if err := r.table("Fig. 7", "Measured", map[string]string{
		"k-means normal range (AccessNum EWMA)": fmt.Sprintf("[%.0f, %.0f]", f7.Lower, f7.Upper),
		"Attack → alarm, EWMA window": fmt.Sprintf("%d → %d (%d windows)",
			f7.AttackWindow, f7.AlarmWindow, f7.AlarmWindow-f7.AttackWindow),
	}); err != nil {
		return err
	}
	f8, err := Fig8SDSPExample()
	if err != nil {
		return err
	}
	r.p("## Fig. 8 — SDS/P detection example (FaceNet)\n\n`fig8`\n\n")
	return r.table("Fig. 8", "Measured", map[string]string{
		"FaceNet profiled period (MA windows)": fmt.Sprintf("%.1f", f8.NormalPeriod),
		"Attack → alarm, MA window": fmt.Sprintf("%d → %d (%d windows)",
			f8.AttackWindow, f8.AlarmWindow, f8.AlarmWindow-f8.AttackWindow),
	})
}

// isPeriodic reports whether app is one of Table II's periodic apps.
func isPeriodic(app string) bool { return workload.MustByAbbrev(app).Periodic }

func steady(app string) bool { return !isPeriodic(app) }

// compare scores every app under one scenario, bus lock then cleansing.
// Scenario 1 adds the stand-alone SDS/B and SDS/P on the periodic apps.
func (r *report) compare(adaptive bool) ([2][]ComparisonCell, error) {
	var cells [2][]ComparisonCell
	for mi, mode := range []AttackMode{BusLock, Cleansing} {
		for _, app := range r.scale.apps {
			dets := StandardFactories(r.dnn)
			if !adaptive && isPeriodic(app) {
				dets = PeriodicFactories(r.dnn)
			}
			got, err := CompareDetectors([]string{app}, dets, mode, adaptive, r.scale.seeds)
			if err != nil {
				return cells, err
			}
			cells[mi] = append(cells[mi], got...)
		}
	}
	return cells, nil
}

// pair renders f's mean over det's cells whose app keep accepts, under
// bus lock / cleansing.
func (r *report) pair(cells [2][]ComparisonCell, format, det string, keep func(string) bool, f func(ComparisonCell) float64) string {
	if det == "DNN" && !r.dnn {
		return needsDNN
	}
	return fmt.Sprintf(format+" / "+format, meanOver(cells[0], det, keep, f), meanOver(cells[1], det, keep, f))
}

func anyApp(string) bool                  { return true }
func cellRecall(c ComparisonCell) float64 { return c.Recall.Median }
func cellSpec(c ComparisonCell) float64   { return c.Spec.Median }
func cellDelay(c ComparisonCell) float64  { return c.Delay }

// scenario1 renders Figs. 11–13: per-scheme means over the apps of each
// app's median (delay: mean) over the seeds.
func (r *report) scenario1() error {
	cells, err := r.compare(false)
	if err != nil {
		return err
	}
	gap := func(cs []ComparisonCell) float64 {
		largest := math.Inf(-1)
		for _, app := range r.scale.apps {
			is := func(a string) bool { return a == app }
			largest = max(largest, meanOver(cs, "SDS", is, cellSpec)-meanOver(cs, "KStest", is, cellSpec))
		}
		return 100 * largest
	}
	r.p("## Figs. 11–12 — Scenario 1 recall & specificity\n\n")
	r.p("`compare -attack buslock|cleansing -seeds %d [-dnn]`; SDS/B and SDS/P: `report`. Mean over apps of each app's median over seeds.\n\n", len(r.scale.seeds))
	if err := r.table("Figs. 11–12", "Measured, bus lock / cleansing", map[string]string{
		"SDS recall":                            r.pair(cells, "%.2f", "SDS", anyApp, cellRecall),
		"KStest recall":                         r.pair(cells, "%.2f", "KStest", anyApp, cellRecall),
		"DNN recall":                            r.pair(cells, "%.2f", "DNN", anyApp, cellRecall),
		"SDS specificity":                       r.pair(cells, "%.2f", "SDS", anyApp, cellSpec),
		"DNN specificity":                       r.pair(cells, "%.2f", "DNN", anyApp, cellSpec),
		"KStest specificity":                    r.pair(cells, "%.2f", "KStest", anyApp, cellSpec),
		"KStest specificity, non-periodic apps": r.pair(cells, "%.2f", "KStest", steady, cellSpec),
		"KStest specificity, periodic apps":     r.pair(cells, "%.2f", "KStest", isPeriodic, cellSpec),
		"Largest per-app SDS − KStest specificity gap": fmt.Sprintf("%.0f / %.0f points", gap(cells[0]), gap(cells[1])),
		"SDS/B recall, periodic apps":                  r.pair(cells, "%.2f", "SDS/B", isPeriodic, cellRecall),
		"SDS/P recall, periodic apps":                  r.pair(cells, "%.2f", "SDS/P", isPeriodic, cellRecall),
		"SDS/B specificity, periodic apps":             r.pair(cells, "%.2f", "SDS/B", isPeriodic, cellSpec),
		"SDS/P specificity, periodic apps":             r.pair(cells, "%.2f", "SDS/P", isPeriodic, cellSpec),
	}); err != nil {
		return err
	}
	r.p("## Fig. 13 — detection delay\n\n")
	r.p("`compare -attack buslock|cleansing -seeds %d [-dnn]` (the DELAY column); SDS/B and SDS/P: `report`. Mean over apps of each app's mean over seeds, leaving out apps never detected.\n\n", len(r.scale.seeds))
	return r.table("Fig. 13", "Measured, bus lock / cleansing (s)", map[string]string{
		"DNN":                       r.pair(cells, "%.1f", "DNN", anyApp, cellDelay),
		"SDS":                       r.pair(cells, "%.1f", "SDS", anyApp, cellDelay),
		"KStest":                    r.pair(cells, "%.1f", "KStest", anyApp, cellDelay),
		"KStest, non-periodic apps": r.pair(cells, "%.1f", "KStest", steady, cellDelay),
		"KStest, periodic apps":     r.pair(cells, "%.1f", "KStest", isPeriodic, cellDelay),
		"SDS/B, periodic apps":      r.pair(cells, "%.1f", "SDS/B", isPeriodic, cellDelay),
		"SDS/P, periodic apps":      r.pair(cells, "%.1f", "SDS/P", isPeriodic, cellDelay),
	})
}

// scenario2 renders Figs. 15–16, averaged as Figs. 11–12 are.
func (r *report) scenario2() error {
	cells, err := r.compare(true)
	if err != nil {
		return err
	}
	r.p("## Figs. 15–16 — Scenario 2 (adaptive attacks)\n\n")
	r.p("`compare -scenario 2 -attack buslock|cleansing -seeds %d [-dnn]`. Mean over apps of each app's median over seeds.\n\n", len(r.scale.seeds))
	return r.table("Figs. 15–16", "Measured, bus lock / cleansing", map[string]string{
		"DNN recall":         r.pair(cells, "%.2f", "DNN", anyApp, cellRecall),
		"SDS recall":         r.pair(cells, "%.2f", "SDS", anyApp, cellRecall),
		"KStest recall":      r.pair(cells, "%.2f", "KStest", anyApp, cellRecall),
		"DNN specificity":    r.pair(cells, "%.2f", "DNN", anyApp, cellSpec),
		"SDS specificity":    r.pair(cells, "%.2f", "SDS", anyApp, cellSpec),
		"KStest specificity": r.pair(cells, "%.2f", "KStest", anyApp, cellSpec),
	})
}

// meanOver averages f over det's cells whose app keep accepts, skipping
// NaN (a delay on an app the scheme never detected); NaN when none is
// left.
func meanOver(cells []ComparisonCell, det string, keep func(string) bool, f func(ComparisonCell) float64) float64 {
	var sum float64
	n := 0
	for _, c := range cells {
		if v := f(c); c.Detector == det && keep(c.App) && !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func (r *report) fig14() error {
	rows, err := Fig14Overhead(r.scale.apps)
	if err != nil {
		return err
	}
	sum := map[string]float64{}
	for _, row := range rows {
		sum[row.Detector] += row.Normalized - 1
	}
	measured := map[string]string{}
	for _, name := range fig14Schemes {
		measured[name] = fmt.Sprintf("%.1f %%", 100*sum[name]/float64(len(r.scale.apps)))
	}
	r.p("## Fig. 14 — performance overhead (normalized execution time)\n\n`overhead -apps %s`\n\n", strings.Join(r.scale.apps, ","))
	r.p("Modelled, not measured: each scheme's typed hypervisor charge (`fig14Charge`) plus, for KStest, the simulated execution throttling. Mean over apps.\n\n")
	return r.table("Fig. 14", "Modelled", measured)
}

// sweeps renders the first and last point of each of Figs. 17–24.
func (r *report) sweeps() error {
	measured := map[string]string{}
	for _, sw := range Sweeps {
		label := fmt.Sprintf("%d (%s)", sw.Figure, sw.Param)
		if sw.train != nil && !r.dnn {
			measured[label] = needsDNN
			continue
		}
		// Points are independent cells, so the endpoints alone score as
		// they do inside the whole sweep.
		pts, err := sw.Run("KM", []float64{sw.Values[0], sw.Values[len(sw.Values)-1]}, r.scale.seeds)
		if err != nil {
			return err
		}
		first, last := pts[0], pts[1]
		measured[label] = fmt.Sprintf("spec %.2f → %.2f, delay %.1f → %.1f s over [%g, %g]",
			first.Specificity, last.Specificity, first.Delay, last.Delay, first.Value, last.Value)
	}
	r.p("## Figs. 17–24 — sensitivity\n\n`sweep -param <p> -seeds %d`, KM (FN for wp, dwp); bus lock, Scenario 1.\n\n", len(r.scale.seeds))
	return r.table("Figs. 17–24", "Measured, first → last point", measured)
}

// ablations renders the design-choice ablations and the response studies,
// each at the settings its subcommand runs.
func (r *report) ablations() error {
	raw, err := AblationRawThreshold("TS", []uint64{1})
	if err != nil {
		return err
	}
	dft, acf, both, err := PeriodEstimatorAblation("FN", []uint64{1, 2, 3})
	if err != nil {
		return err
	}
	micro, fast, err := MicrosimCalibration()
	if err != nil {
		return err
	}
	mig, err := MigrationStudy("KM", 60, 600, 13)
	if err != nil {
		return err
	}
	lockLoop, err := ClosedLoop(DefaultClosedLoopSpec("KM", BusLock, 7))
	if err != nil {
		return err
	}
	cleanseLoop, err := ClosedLoop(DefaultClosedLoopSpec("KM", Cleansing, 7))
	if err != nil {
		return err
	}
	cont, err := ContainerStudy(BusLock, 600, 7)
	if err != nil {
		return err
	}
	acc := func(a Accuracy) string { return fmt.Sprintf("recall %.2f, spec %.2f", a.Recall, a.Specificity) }
	closed := func(c *ClosedLoopResult) string {
		return fmt.Sprintf("%.2f× → %.2f×, %.0f %% recovered; throttles %d, partitions %d, migrations %d",
			c.AttackedNormalized, c.MitigatedNormalized, 100*c.Recovered, c.Stats.Throttles, c.Stats.Partitions, c.Stats.Migrations)
	}
	r.p("## Ablations and response studies (beyond the paper's figures)\n\n")
	r.p("`ablation -which raw|period|microsim`, `migration`, `mitigate [-attack cleansing]`, `containers`\n\n")
	return r.table("Ablations", "Measured", map[string]string{
		"Raw threshold, coarse (0.5), TS":                 acc(raw["naive-coarse"]),
		"Raw threshold, fine (0.15), TS":                  acc(raw["naive-fine"]),
		"SDS on the same runs":                            acc(raw["SDS"]),
		"Period error, DFT / ACF / DFT-ACF, FN":           fmt.Sprintf("%.3f / %.3f / %.3f", dft, acf, both),
		"Cleansing miss inflation, microsim / fast model": fmt.Sprintf("%.1f× / %.1f×", micro, fast),
		"Migration, KM: time under attack": fmt.Sprintf("%.0f %% → %.0f %%, %d migrations",
			100*mig.AttackedFractionNoResponse, 100*mig.AttackedFraction, mig.Migrations),
		"Migration, KM: victim mean speed":    fmt.Sprintf("%.2f → %.2f", mig.MeanSpeedNoResponse, mig.MeanSpeedWithResponse),
		"Closed loop, KM, bus lock":           closed(lockLoop),
		"Closed loop, KM, cleansing":          closed(cleanseLoop),
		"Containers: invocations/s, bus lock": fmt.Sprintf("%.2f → %.2f", cont.CleanThroughput, cont.AttackedThroughput),
		"Containers: SDS/U on the per-function aggregate": fmt.Sprintf("%s, delay %.1f s",
			acc(cont.Accuracy), cont.Accuracy.MeanDelay),
	})
}
