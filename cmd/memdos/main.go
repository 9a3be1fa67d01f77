// Command memdos regenerates the paper's tables and figures from the
// simulation substrate. Each subcommand corresponds to one experiment; see
// DESIGN.md for the experiment index.
//
// Usage:
//
//	memdos [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-parallel N] <command> [args]
//
//	memdos apps
//	memdos trace    -app KM -attack buslock [-out trace.csv]
//	memdos detect   -app KM -attack buslock [-detector SDS] [-adaptive]
//	memdos fig1     [-dur 600] [-seeds 3]
//	memdos fig7
//	memdos fig8
//	memdos compare  [-attack buslock] [-scenario 1] [-apps KM,TS] [-dnn] [-seeds 2]
//	memdos overhead [-apps KM,BA]
//	memdos sweep    -param alpha|k|w|dw|wp|dwp|dnnw|dnndw [-app KM] [-seeds 1]
//	memdos train    [-apps KM,BA,TS] [-epochs 10] [-out cascade.json]
//	memdos ablation -which raw|period|microsim
//	memdos migration [-app KM] [-delay 60]
//	memdos mitigate [-app KM] [-attack buslock] [-seed 7]
//	memdos membw    [-app KM] [-sockets 1,2] [-dur 600] [-budget 2e9] [-dnn]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"memdos"
	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
	"memdos/internal/par"
	"memdos/internal/trace"
	"memdos/internal/workload"
)

func main() {
	os.Exit(run())
}

// run parses the global profiling flags, dispatches the subcommand, and
// returns the exit code. It exists so the profile-writing defers run before
// the process exits (os.Exit in main would skip them).
func run() int {
	global := flag.NewFlagSet("memdos", flag.ExitOnError)
	global.Usage = usage
	cpuProfile := global.String("cpuprofile", "", "write a CPU profile of the subcommand to this file")
	memProfile := global.String("memprofile", "", "write a heap profile to this file when the subcommand finishes")
	parallel := global.Int("parallel", 0, "worker count for experiment sweeps (0 = all CPUs, 1 = serial)")
	global.Parse(os.Args[1:])
	if global.NArg() < 1 {
		usage()
		return 2
	}
	cmd, args := global.Arg(0), global.Args()[1:]
	par.SetParallelism(*parallel)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memdos: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memdos: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memdos: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memdos: %v\n", err)
			}
		}()
	}

	err := dispatch(cmd, args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memdos %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

func dispatch(cmd string, args []string) error {
	var err error
	switch cmd {
	case "apps":
		err = cmdApps()
	case "trace":
		err = cmdTrace(args)
	case "detect":
		err = cmdDetect(args)
	case "fig1":
		err = cmdFig1(args)
	case "fig7":
		err = cmdFig7()
	case "fig8":
		err = cmdFig8()
	case "compare":
		err = cmdCompare(args)
	case "overhead":
		err = cmdOverhead(args)
	case "sweep":
		err = cmdSweep(args)
	case "train":
		err = cmdTrain(args)
	case "ablation":
		err = cmdAblation(args)
	case "migration":
		err = cmdMigration(args)
	case "cluster":
		err = cmdCluster(args)
	case "mitigate":
		err = cmdMitigate(args)
	case "membw":
		err = cmdMemBW(args)
	case "containers":
		err = cmdContainers(args)
	case "report":
		err = cmdReport(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "memdos: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, `memdos — memory DoS attack & detection reproduction

commands:
  apps       list the application models (Table II)
  trace      120s counter trace with attack at 60s (Figs. 2-6)
  detect     run one scenario with one detector; print incidents
  fig1       KStest false positives with no attack (Fig. 1, Sec. III-B)
  fig7       SDS/B detection example on k-means (Fig. 7)
  fig8       SDS/P detection example on FaceNet (Fig. 8)
  compare    detector comparison, Scenario 1 or 2 (Figs. 11-13, 15-16)
  overhead   normalized execution times (Fig. 14)
  sweep      parameter sensitivity (Figs. 17-24)
  train      train the LSTM-FCN cascade and report accuracy
  ablation   design-choice ablations (raw threshold / period / microsim)
  migration  detect-and-migrate response study (why migration alone fails)
  cluster    datacenter placement x scheduling study with real VM migration
  mitigate   closed-loop mitigation study (SDS alarms -> respond engine)
  membw      DRAM bandwidth-hog study on 1- and 2-socket NUMA topologies
  containers serverless/container future-work study (Sec. VIII)
  report     run the core experiment set, emit a markdown report

global flags (before the command):
  -cpuprofile FILE   write a CPU profile of the subcommand
  -memprofile FILE   write a heap profile when the subcommand finishes
  -parallel N        worker count for experiment sweeps (0 = all CPUs, 1 = serial)`)
}

func parseMode(s string) (experiments.AttackMode, error) {
	switch s {
	case "buslock", "lock":
		return experiments.BusLock, nil
	case "cleansing", "llc":
		return experiments.Cleansing, nil
	case "membw", "dram":
		return experiments.MemBW, nil
	case "none":
		return experiments.NoAttack, nil
	default:
		return 0, fmt.Errorf("unknown attack %q (buslock|cleansing|membw|none)", s)
	}
}

// seedList returns the seeds 1..n of a -seeds flag, refusing n < 1.
func seedList(n int) ([]uint64, error) {
	if n < 1 {
		return nil, fmt.Errorf("-seeds must be at least 1, got %d", n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out, nil
}

func cmdApps() error {
	fmt.Printf("%-8s %-32s %-9s %s\n", "ABBREV", "NAME", "PERIODIC", "NOMINAL RUNTIME")
	for _, s := range workload.All() {
		period := "-"
		if s.Periodic {
			period = fmt.Sprintf("%.1fs", s.PeriodSec)
		}
		fmt.Printf("%-8s %-32s %-9s %.0fs\n", s.Abbrev, s.Name, period, s.WorkSeconds)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	app := fs.String("app", "KM", "application abbreviation")
	atk := fs.String("attack", "buslock", "attack kind (buslock|cleansing)")
	out := fs.String("out", "", "optional CSV output path")
	seed := fs.Uint64("seed", 1, "run seed")
	fs.Parse(args)
	mode, err := parseMode(*atk)
	if err != nil {
		return err
	}
	tr, err := experiments.MeasurementTrace(*app, mode, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("%s under %v: attacked channel mean %.0f -> %.0f (%.2fx)\n",
		tr.App, tr.Mode, tr.BeforeMean, tr.DuringMean, tr.DuringMean/tr.BeforeMean)
	if tr.CleanPeriod > 0 {
		fmt.Printf("period: %.1f -> %.1f MA windows\n", tr.CleanPeriod, tr.AttackedPeriod)
	}
	fmt.Printf("AccessNum  %s\n", trace.Sparkline(tr.Access, 80))
	fmt.Printf("MissNum    %s\n", trace.Sparkline(tr.Miss, 80))
	fmt.Println("            (attack starts at the midpoint)")
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, tr.Access, tr.Miss); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	app := fs.String("app", "KM", "application abbreviation")
	atk := fs.String("attack", "buslock", "attack kind (buslock|cleansing|none)")
	detName := fs.String("detector", "SDS", "SDS|KStest")
	adaptive := fs.Bool("adaptive", false, "use the Scenario 2 on/off schedule")
	seed := fs.Uint64("seed", 1, "run seed")
	fs.Parse(args)
	mode, err := parseMode(*atk)
	if err != nil {
		return err
	}
	var factory experiments.DetectorFactory
	switch *detName {
	case "SDS":
		factory = experiments.SDSFactory
	case "KStest":
		factory = experiments.KSFactory
	default:
		return fmt.Errorf("unknown detector %q (SDS|KStest; DNN via compare -dnn)", *detName)
	}
	spec := experiments.DefaultRunSpec(*app, mode, *seed)
	spec.Adaptive = *adaptive
	res, err := experiments.Run(spec, core.DefaultParams(), factory)
	if err != nil {
		return err
	}
	fmt.Printf("AccessNum  %s\n", trace.Sparkline(res.Access, 80))
	fmt.Printf("MissNum    %s\n", trace.Sparkline(res.Miss, 80))
	for _, iv := range res.Truth {
		fmt.Printf("attack on  [%6.1f, %6.1f)\n", iv.Start, iv.End)
	}
	incidents, err := core.Incidents(res.Decisions)
	if err != nil {
		return err
	}
	incidents = core.MergeIncidents(incidents, 10)
	if len(incidents) == 0 {
		fmt.Println("no alarms raised")
		return nil
	}
	fmt.Printf("%s incidents (gaps <= 10s merged):\n", *detName)
	for _, in := range incidents {
		fmt.Printf("  %v (%.0fs)\n", in, in.Duration())
	}
	a := experiments.Score(res, 30)
	fmt.Printf("recall %.3f  specificity %.3f  mean delay %.1fs\n", a.Recall, a.Specificity, a.MeanDelay)
	return nil
}

func cmdFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	dur := fs.Float64("dur", 600, "run duration per app (s)")
	seeds := fs.Int("seeds", 3, "number of seeds")
	fs.Parse(args)
	sl, err := seedList(*seeds)
	if err != nil {
		return err
	}
	res, err := experiments.Fig1KStestFalsePositives(*dur, sl)
	if err != nil {
		return err
	}
	fmt.Println("KStest false-alarm rate per L_R interval, no attack (paper Sec. III-B):")
	for _, r := range res.Rows {
		fmt.Printf("  %-6s %5.1f%%\n", r.App, 100*r.FalseAlarmRate)
	}
	return nil
}

func cmdFig7() error {
	res, err := experiments.Fig7SDSBExample()
	if err != nil {
		return err
	}
	fmt.Printf("k-means SDS/B example: normal range [%.0f, %.0f]\n", res.Lower, res.Upper)
	fmt.Printf("attack at window %d, alarm at window %d\n", res.AttackWindow, res.AlarmWindow)
	return nil
}

func cmdFig8() error {
	res, err := experiments.Fig8SDSPExample()
	if err != nil {
		return err
	}
	fmt.Printf("FaceNet SDS/P example: normal period %.1f MA windows\n", res.NormalPeriod)
	fmt.Printf("attack at window %d, alarm at window %d\n", res.AttackWindow, res.AlarmWindow)
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	atk := fs.String("attack", "buslock", "attack kind")
	scenario := fs.Int("scenario", 1, "1 (half-run attack) or 2 (adaptive)")
	appsFlag := fs.String("apps", strings.Join(workload.Abbrevs(), ","), "comma-separated apps")
	withDNN := fs.Bool("dnn", false, "include the DNN detector (trains on first use)")
	seeds := fs.Int("seeds", 2, "seeds per cell")
	fs.Parse(args)
	mode, err := parseMode(*atk)
	if err != nil {
		return err
	}
	if *scenario != 1 && *scenario != 2 {
		return fmt.Errorf("-scenario must be 1 or 2, got %d", *scenario)
	}
	sl, err := seedList(*seeds)
	if err != nil {
		return err
	}
	// Cells come out in app order, then detector-name order, so sorting
	// the apps sorts the table.
	apps := strings.Split(*appsFlag, ",")
	sort.Strings(apps)
	cells, err := experiments.CompareDetectors(apps, experiments.StandardFactories(*withDNN), mode, *scenario == 2, sl)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-8s %8s %8s %8s\n", "APP", "SCHEME", "RECALL", "SPEC", "DELAY(s)")
	for _, c := range cells {
		fmt.Printf("%-6s %-8s %8.3f %8.3f %8.1f\n", c.App, c.Detector, c.Recall.Median, c.Spec.Median, c.Delay)
	}
	return nil
}

func cmdOverhead(args []string) error {
	fs := flag.NewFlagSet("overhead", flag.ExitOnError)
	appsFlag := fs.String("apps", "KM,BA", "comma-separated apps")
	fs.Parse(args)
	rows, err := experiments.Fig14Overhead(strings.Split(*appsFlag, ","))
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-8s %s\n", "APP", "SCHEME", "NORMALIZED EXEC TIME")
	for _, r := range rows {
		fmt.Printf("%-6s %-8s %.3f\n", r.App, r.Detector, r.Normalized)
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var params []string
	for _, sw := range experiments.Sweeps {
		params = append(params, sw.Param)
	}
	param := fs.String("param", "alpha", strings.Join(params, "|"))
	app := fs.String("app", "KM", "application (periodic sweeps use FN)")
	seeds := fs.Int("seeds", 1, "seeds per point")
	fs.Parse(args)
	sl, err := seedList(*seeds)
	if err != nil {
		return err
	}
	for _, sw := range experiments.Sweeps {
		if sw.Param != *param {
			continue
		}
		pts, err := sw.Run(*app, sw.Values, sl)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %8s %8s %8s\n", strings.ToUpper(*param), "RECALL", "SPEC", "DELAY(s)")
		for _, p := range pts {
			fmt.Printf("%-10.4g %8.3f %8.3f %8.1f\n", p.Value, p.Recall, p.Specificity, p.Delay)
		}
		return nil
	}
	return fmt.Errorf("unknown sweep parameter %q", *param)
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	appsFlag := fs.String("apps", strings.Join(workload.Abbrevs(), ","), "apps to train on")
	epochs := fs.Int("epochs", 12, "training epochs")
	verbose := fs.Bool("v", false, "per-epoch progress")
	out := fs.String("out", "", "write the trained cascade to this file, for memdosd -score-model")
	fs.Parse(args)
	spec := experiments.DefaultTrainingSpec()
	spec.Apps = strings.Split(*appsFlag, ",")
	spec.Train.Epochs = *epochs
	if *verbose {
		spec.Train.Verbose = func(line string) { fmt.Println(line) }
	}
	samples, err := experiments.GenerateCascadeSamples(spec)
	if err != nil {
		return err
	}
	fmt.Printf("training corpus: %d windows across %d apps x 3 attack states\n", len(samples), len(spec.Apps))
	cascade, err := experiments.TrainCascade(spec)
	if err != nil {
		return err
	}
	// Held-out evaluation: fresh windows from disjoint seeds.
	var held []memdos.CascadeSample
	for appIdx, app := range spec.Apps {
		for _, mode := range []experiments.AttackMode{experiments.NoAttack, experiments.BusLock, experiments.Cleansing} {
			wins, err := experiments.HeldOutWindows(app, mode, spec)
			if err != nil {
				return err
			}
			for _, w := range wins {
				held = append(held, memdos.CascadeSample{
					Window: w, AppLabel: appIdx, AttackLabel: experiments.AttackClassOf(mode),
				})
			}
		}
	}
	appConf, atkConf, err := dnn.EvaluateCascade(cascade, held)
	if err != nil {
		return err
	}
	fmt.Printf("held-out application classifier: accuracy %.3f, per-class recall %v\n",
		appConf.Accuracy(), fmtRecalls(appConf.PerClassRecall()))
	fmt.Printf("held-out attack classifier:      accuracy %.3f, per-class recall %v\n",
		atkConf.Accuracy(), fmtRecalls(atkConf.PerClassRecall()))
	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := cascade.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote cascade (window %d) to %s\n", cascade.Window(), *out)
	return nil
}

// fmtRecalls renders per-class recalls compactly.
func fmtRecalls(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%.2f", r)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func cmdMigration(args []string) error {
	fs := flag.NewFlagSet("migration", flag.ExitOnError)
	app := fs.String("app", "KM", "application")
	delay := fs.Float64("delay", 60, "attacker re-co-location delay (s)")
	dur := fs.Float64("dur", 600, "run duration (s)")
	fs.Parse(args)
	res, err := experiments.MigrationStudy(*app, *delay, *dur, 13)
	if err != nil {
		return err
	}
	fmt.Printf("detect-and-migrate against a persistent bus-locking attacker (%s, %gs re-co-location):\n", *app, *delay)
	fmt.Printf("  migrations triggered:            %d\n", res.Migrations)
	fmt.Printf("  time under attack, no response:  %.0f%%\n", 100*res.AttackedFractionNoResponse)
	fmt.Printf("  time under attack, migrating:    %.0f%%\n", 100*res.AttackedFraction)
	fmt.Printf("  victim mean speed, no response:  %.2f\n", res.MeanSpeedNoResponse)
	fmt.Printf("  victim mean speed, migrating:    %.2f\n", res.MeanSpeedWithResponse)
	fmt.Println("migration helps but cannot defeat the attack: the adversary re-co-locates (Sec. II).")
	return nil
}

func cmdMitigate(args []string) error {
	fs := flag.NewFlagSet("mitigate", flag.ExitOnError)
	app := fs.String("app", "KM", "application")
	atk := fs.String("attack", "buslock", "attack kind (buslock|cleansing)")
	seed := fs.Uint64("seed", 7, "run seed")
	start := fs.Float64("start", 30, "attack co-location time (s)")
	delay := fs.Float64("delay", 120, "attacker re-co-location delay after migration (s)")
	fs.Parse(args)
	mode, err := parseMode(*atk)
	if err != nil {
		return err
	}
	if mode == experiments.NoAttack {
		return fmt.Errorf("mitigate needs an attack (buslock|cleansing)")
	}
	spec := experiments.DefaultClosedLoopSpec(*app, mode, *seed)
	spec.AttackStart = *start
	spec.RelocationDelay = *delay
	res, err := experiments.ClosedLoop(spec)
	if err != nil {
		return err
	}
	fmt.Printf("closed-loop mitigation of %v on %s (SDS -> respond engine):\n", mode, res.App)
	fmt.Printf("  completion time, attack-free:    %7.1fs\n", res.CleanTime)
	fmt.Printf("  completion time, no mitigation:  %7.1fs  (normalized %.2f)\n", res.AttackedTime, res.AttackedNormalized)
	fmt.Printf("  completion time, closed loop:    %7.1fs  (normalized %.2f)\n", res.MitigatedTime, res.MitigatedNormalized)
	fmt.Printf("  slowdown recovered:              %6.0f%%\n", 100*res.Recovered)
	fmt.Printf("  alarms %d, peak rung %d, throttles %d, partitions %d, migrations %d\n",
		res.Alarms, res.PeakLevel, res.Stats.Throttles, res.Stats.Partitions, res.Stats.Migrations)
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("out", "", "output path (default stdout)")
	appsFlag := fs.String("apps", "KM,TS,FN", "comma-separated apps")
	seeds := fs.Int("seeds", 1, "seeds per experiment")
	withDNN := fs.Bool("dnn", false, "include the DNN detector (slow: trains first)")
	fs.Parse(args)
	sl, err := seedList(*seeds)
	if err != nil {
		return err
	}
	cfg := experiments.ReportConfig{
		Seeds:   sl,
		Apps:    strings.Split(*appsFlag, ","),
		WithDNN: *withDNN,
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	started := time.Now()
	if err := experiments.WriteReport(w, cfg, func() time.Duration { return time.Since(started) }); err != nil {
		return err
	}
	if *out != "" {
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdContainers(args []string) error {
	fs := flag.NewFlagSet("containers", flag.ExitOnError)
	atk := fs.String("attack", "buslock", "attack kind")
	fs.Parse(args)
	mode, err := parseMode(*atk)
	if err != nil {
		return err
	}
	res, err := experiments.ContainerStudy(mode, 600, 7)
	if err != nil {
		return err
	}
	fmt.Printf("serverless function under %v (4 instances, 2s invocations):\n", mode)
	fmt.Printf("  invocation throughput: %.2f/s -> %.2f/s\n", res.CleanThroughput, res.AttackedThroughput)
	fmt.Printf("  samples per instance:  %d (SDS/B needs W=200 just for one window)\n", res.SamplesPerInstance)
	fmt.Printf("  SDS/U on the per-function aggregate: recall %.3f, specificity %.3f, delay %.1fs\n",
		res.Accuracy.Recall, res.Accuracy.Specificity, res.Accuracy.MeanDelay)
	return nil
}

func cmdAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	which := fs.String("which", "raw", "raw|period|microsim")
	fs.Parse(args)
	switch *which {
	case "raw":
		accs, err := experiments.AblationRawThreshold("TS", []uint64{1})
		if err != nil {
			return err
		}
		for _, name := range []string{"naive-coarse", "naive-fine", "SDS"} {
			a := accs[name]
			fmt.Printf("%-14s recall %.3f  specificity %.3f\n", name, a.Recall, a.Specificity)
		}
	case "period":
		dft, acf, both, err := experiments.PeriodEstimatorAblation("FN", []uint64{1, 2, 3})
		if err != nil {
			return err
		}
		fmt.Printf("mean relative period error: DFT-only %.3f, ACF-only %.3f, DFT-ACF %.3f\n", dft, acf, both)
	case "microsim":
		micro, fast, err := experiments.MicrosimCalibration()
		if err != nil {
			return err
		}
		fmt.Printf("cleansing miss-ratio inflation: microsim %.2fx, fast model %.2fx\n", micro, fast)
	default:
		return fmt.Errorf("unknown ablation %q", *which)
	}
	return nil
}
