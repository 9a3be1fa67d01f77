// Benchmarks regenerating every table and figure of the paper's evaluation
// (see the experiment index in DESIGN.md). Each benchmark runs the
// corresponding experiment end to end and reports its headline numbers as
// custom metrics, so `go test -bench` doubles as the reproduction harness.
//
// The figures' data series themselves can be exported with cmd/memdos.
package memdos_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"memdos/internal/core"
	"memdos/internal/experiments"
	"memdos/internal/pcm"
	"memdos/internal/respond"
	"memdos/internal/stream"
	"memdos/internal/workload"
)

var benchSeeds = []uint64{1, 2}

// reportCells averages the per-app medians of one detector and reports
// them as benchmark metrics.
func reportCells(b *testing.B, cells []experiments.ComparisonCell, metric string) {
	b.Helper()
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, c := range cells {
		var v float64
		switch metric {
		case "recall":
			v = c.Recall.Median
		case "specificity":
			v = c.Spec.Median
		case "delay":
			v = c.Delay
		}
		if math.IsNaN(v) {
			continue
		}
		sums[c.Detector] += v
		counts[c.Detector]++
	}
	for det, sum := range sums {
		b.ReportMetric(sum/float64(counts[det]), det+"_"+metric)
	}
}

func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams()
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	p := core.DefaultParams()
	b.ReportMetric(p.Confidence(), "confidence")
	b.ReportMetric(p.MinDetectionDelayB(), "minDelayB_s")
	b.ReportMetric(p.MinDetectionDelayP(), "minDelayP_s")
}

func BenchmarkFig01KStestFalsePositives(b *testing.B) {
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1KStestFalsePositives(600, []uint64{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.FalseAlarmRate, "fp_"+row.App)
	}
}

func BenchmarkFig02to06Traces(b *testing.B) {
	var traces []*experiments.TraceResult
	for i := 0; i < b.N; i++ {
		var err error
		traces, err = experiments.AllMeasurementTraces(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline shape numbers: mean AccessNum retention under bus locking
	// and mean MissNum inflation under cleansing, across the ten apps.
	var drop, rise float64
	var nDrop, nRise int
	for _, tr := range traces {
		switch tr.Mode {
		case experiments.BusLock:
			drop += tr.DuringMean / tr.BeforeMean
			nDrop++
		case experiments.Cleansing:
			rise += tr.DuringMean / tr.BeforeMean
			nRise++
		}
	}
	b.ReportMetric(drop/float64(nDrop), "buslock_access_retention")
	b.ReportMetric(rise/float64(nRise), "cleansing_miss_inflation")
}

func BenchmarkFig07SDSBExample(b *testing.B) {
	var res *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig7SDSBExample()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.AlarmWindow-res.AttackWindow), "alarm_after_windows")
}

func BenchmarkFig08SDSPExample(b *testing.B) {
	var res *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig8SDSPExample()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.NormalPeriod, "normal_period_windows")
	b.ReportMetric(float64(res.AlarmWindow-res.AttackWindow), "alarm_after_windows")
}

// scenario1 runs the Figs. 11-13 comparison for one attack over all apps.
func scenario1(b *testing.B, mode experiments.AttackMode, metric string) {
	b.Helper()
	apps := workload.Abbrevs()
	var cells []experiments.ComparisonCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.CompareDetectors(apps, experiments.StandardFactories(true), mode, false, benchSeeds[:1])
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCells(b, cells, metric)
}

func BenchmarkFig11RecallBusLock(b *testing.B)      { scenario1(b, experiments.BusLock, "recall") }
func BenchmarkFig11RecallCleansing(b *testing.B)    { scenario1(b, experiments.Cleansing, "recall") }
func BenchmarkFig12SpecificityBusLock(b *testing.B) { scenario1(b, experiments.BusLock, "specificity") }
func BenchmarkFig12SpecificityCleansing(b *testing.B) {
	scenario1(b, experiments.Cleansing, "specificity")
}
func BenchmarkFig13DelayBusLock(b *testing.B)   { scenario1(b, experiments.BusLock, "delay") }
func BenchmarkFig13DelayCleansing(b *testing.B) { scenario1(b, experiments.Cleansing, "delay") }

// BenchmarkFig11to13PeriodicApps adds the stand-alone SDS/B and SDS/P
// detectors evaluated on the periodic applications.
func BenchmarkFig11to13PeriodicApps(b *testing.B) {
	var cells []experiments.ComparisonCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.CompareDetectors(workload.PeriodicAbbrevs(),
			experiments.PeriodicFactories(false), experiments.BusLock, false, benchSeeds[:1])
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCells(b, cells, "specificity")
	reportCells(b, cells, "delay")
}

func BenchmarkFig14Overhead(b *testing.B) {
	var rows []experiments.Fig14Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig14Overhead(workload.Abbrevs())
		if err != nil {
			b.Fatal(err)
		}
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, r := range rows {
		sums[r.Detector] += r.Normalized
		counts[r.Detector]++
	}
	for det, sum := range sums {
		b.ReportMetric(sum/float64(counts[det]), det+"_normalized")
	}
}

// scenario2 runs the Figs. 15-16 adaptive-attack comparison.
func scenario2(b *testing.B, mode experiments.AttackMode, metric string) {
	b.Helper()
	apps := workload.Abbrevs()
	var cells []experiments.ComparisonCell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.CompareDetectors(apps, experiments.StandardFactories(true), mode, true, benchSeeds[:1])
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCells(b, cells, metric)
}

func BenchmarkFig15Recall2BusLock(b *testing.B)   { scenario2(b, experiments.BusLock, "recall") }
func BenchmarkFig15Recall2Cleansing(b *testing.B) { scenario2(b, experiments.Cleansing, "recall") }
func BenchmarkFig16Specificity2BusLock(b *testing.B) {
	scenario2(b, experiments.BusLock, "specificity")
}
func BenchmarkFig16Specificity2Cleansing(b *testing.B) {
	scenario2(b, experiments.Cleansing, "specificity")
}

// reportSweep exposes a sweep's endpoints as metrics.
func reportSweep(b *testing.B, pts []experiments.SweepPoint) {
	b.Helper()
	if len(pts) == 0 {
		return
	}
	first, last := pts[0], pts[len(pts)-1]
	b.ReportMetric(first.Delay, "delay_at_min")
	b.ReportMetric(last.Delay, "delay_at_max")
	b.ReportMetric(first.Specificity, "spec_at_min")
	b.ReportMetric(last.Specificity, "spec_at_max")
}

// BenchmarkSweeps runs every sensitivity figure of Figs. 17-24 over its
// default values, one sub-benchmark per row of experiments.Sweeps
// (Fig17-alpha ... Fig24-dwp); the DNN rows train their cascades first.
func BenchmarkSweeps(b *testing.B) {
	for _, sw := range experiments.Sweeps {
		b.Run(fmt.Sprintf("Fig%d-%s", sw.Figure, sw.Param), func(b *testing.B) {
			var pts []experiments.SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = sw.Run("KM", sw.Values, benchSeeds[:1])
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSweep(b, pts)
		})
	}
}

func BenchmarkAblationRawThreshold(b *testing.B) {
	var accs map[string]experiments.Accuracy
	for i := 0; i < b.N; i++ {
		var err error
		accs, err = experiments.AblationRawThreshold("TS", benchSeeds[:1])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(accs["naive-coarse"].Recall, "naive_coarse_recall")
	b.ReportMetric(accs["naive-fine"].Specificity, "naive_fine_specificity")
	b.ReportMetric(accs["SDS"].Specificity, "sds_specificity")
}

func BenchmarkAblationPeriodEstimators(b *testing.B) {
	var dft, acf, both float64
	for i := 0; i < b.N; i++ {
		var err error
		dft, acf, both, err = experiments.PeriodEstimatorAblation("FN", benchSeeds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dft, "dft_only_err")
	b.ReportMetric(acf, "acf_only_err")
	b.ReportMetric(both, "dft_acf_err")
}

// benchStreamIngest drives the always-on detection hub with nSessions
// concurrent producers, each feeding an SDS/B pipeline, and reports
// end-to-end throughput in samples/sec (ingest through detector push).
func benchStreamIngest(b *testing.B, nSessions int) {
	cfg := stream.DefaultConfig()
	cfg.Policy = stream.Block // measure detector throughput, not drops
	cfg.QueueCap = 1 << 14
	hub := stream.NewHub(cfg)
	defer hub.Close()

	params := core.DefaultParams()
	params.W, params.DW = 200, 50
	prof := core.Profile{AccessMean: 100, AccessStd: 5, MissMean: 10, MissStd: 2}
	if err := hub.RegisterProfile("sdsb", func() (core.Detector, error) {
		return core.NewSDSB(prof, params)
	}); err != nil {
		b.Fatal(err)
	}
	const batchLen = 256
	batch := make([]pcm.Sample, batchLen)
	for i := range batch {
		batch[i] = pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: 100, MissNum: 10}
	}
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("vm-%03d", i)
		if err := hub.Open(ids[i], "sdsb"); err != nil {
			b.Fatal(err)
		}
	}

	perSession := (b.N + nSessions - 1) / nSessions
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for sent := 0; sent < perSession; sent += batchLen {
				if _, err := hub.Ingest(id, batch); err != nil {
					b.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if err := hub.Drain(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	total := float64(perSession+batchLen-1) / batchLen * batchLen * float64(nSessions)
	b.ReportMetric(total/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkStreamIngest measures the internal/stream hub at increasing
// tenant counts — the serving-path cost of the paper's "always-on
// detection on every hypervisor" deployment model.
func BenchmarkStreamIngest(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			benchStreamIngest(b, n)
		})
	}
}

func BenchmarkAblationMicrosimVsFast(b *testing.B) {
	var micro, fast float64
	for i := 0; i < b.N; i++ {
		var err error
		micro, fast, err = experiments.MicrosimCalibration()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(micro, "microsim_inflation")
	b.ReportMetric(fast, "fastmodel_inflation")
}

// respondBenchActuator hands each throttle application to the benchmark
// loop so it can block until the action has landed.
type respondBenchActuator struct{ applied chan float64 }

func (a *respondBenchActuator) Throttle(_ string, duty float64) error {
	a.applied <- duty
	return nil
}
func (a *respondBenchActuator) LimitBandwidth(string, float64) error { return nil }

func (a *respondBenchActuator) Partition(string, bool) error { return nil }
func (a *respondBenchActuator) Migrate(string) (respond.MigrateResult, error) {
	return respond.MigrateResult{}, nil
}

// respondBenchDetector alarms exactly when MissNum is anomalous, so every
// benchmark sample is one deterministic alarm transition.
type respondBenchDetector struct{}

func (respondBenchDetector) Name() string { return "flip" }
func (respondBenchDetector) Push(s pcm.Sample) []core.Decision {
	return []core.Decision{{Time: s.Time, Alarm: s.MissNum > 50}}
}

// BenchmarkRespondLoop measures the end-to-end closed-loop cycle of the
// mitigation path: sample ingest through the hub's detector, alarm
// fan-out, the respond engine's policy step and the actuator call — then
// the clear, hysteresis tick and release. ns/op is the full
// alarm->throttle->clear->release round trip.
func BenchmarkRespondLoop(b *testing.B) {
	hub := stream.NewHub(stream.Config{Shards: 1, QueueCap: 1 << 12, ShardBuffer: 64, Policy: stream.Block})
	defer hub.Close()
	if err := hub.RegisterProfile("flip", func() (core.Detector, error) {
		return respondBenchDetector{}, nil
	}); err != nil {
		b.Fatal(err)
	}
	if err := hub.Open("vm-1", "flip"); err != nil {
		b.Fatal(err)
	}
	act := &respondBenchActuator{applied: make(chan float64, 1)}
	cfg := respond.Config{ThrottleDuties: []float64{0.5}, EscalateAfter: 1e9, ClearAfter: 1e-9}
	eng, err := respond.New(cfg, act)
	if err != nil {
		b.Fatal(err)
	}
	stop := respond.Attach(hub, eng, 64)
	defer stop()

	raise := []pcm.Sample{{AccessNum: 100, MissNum: 100}}
	clear := []pcm.Sample{{AccessNum: 100, MissNum: 10}}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		raise[0].Time = now
		if _, err := hub.Ingest("vm-1", raise); err != nil {
			b.Fatal(err)
		}
		if d := <-act.applied; d != 0.5 {
			b.Fatalf("applied duty %v, want 0.5", d)
		}
		now++
		clear[0].Time = now
		if _, err := hub.Ingest("vm-1", clear); err != nil {
			b.Fatal(err)
		}
		// Ingest only queues the batch; the shard goroutine feeds it to
		// the engine. Wait until the shard has delivered the clear before
		// ticking the hysteresis forward.
		for {
			if st, ok := eng.State("vm-1"); ok && !st.AlarmActive {
				break
			}
			runtime.Gosched()
		}
		now++
		eng.Tick(now)
		if d := <-act.applied; d != 0 {
			b.Fatalf("release duty %v, want 0", d)
		}
	}
}
