package core

import (
	"math"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/metrics"
	"memdos/internal/pcm"
	"memdos/internal/stats"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// runSamples runs srv to time dur and returns VM id's AccessNum and
// MissNum samples, read from each step's StepResult (a counter keeps no
// history).
func runSamples(srv *vmm.Server, id vmm.VMID, dur float64) (access, miss []float64) {
	srv.RunUntil(dur, func(step vmm.StepResult) {
		access = append(access, step.Samples[id].AccessNum)
		miss = append(miss, step.Samples[id].MissNum)
	})
	return access, miss
}

// profileApp runs a clean server for dur seconds and builds the app's
// profile — the "known safe right after VM start" assumption of the paper.
func profileApp(t *testing.T, app string, dur float64, p Params) Profile {
	t.Helper()
	srv := vmm.MustNewServer(vmm.DefaultConfig())
	vm, err := srv.AddApp("victim", workload.MustByAbbrev(app).Service())
	if err != nil {
		t.Fatal(err)
	}
	access, miss := runSamples(srv, vm.ID(), dur)
	prof, err := BuildProfile(access, miss, p)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// runDetector builds a victim+attacker server, streams the victim's PCM
// samples through det, and returns the decision time-line.
func runDetector(t *testing.T, app string, atk *attack.Attacker, dur float64, det Detector) []Decision {
	t.Helper()
	cfg := vmm.DefaultConfig()
	cfg.Seed = 7
	srv := vmm.MustNewServer(cfg)
	victim, err := srv.AddApp("victim", workload.MustByAbbrev(app).Service())
	if err != nil {
		t.Fatal(err)
	}
	if atk != nil {
		if _, err := srv.AddAttacker("attacker", atk); err != nil {
			t.Fatal(err)
		}
	}
	var decisions []Decision
	srv.RunUntil(dur, func(res vmm.StepResult) {
		decisions = append(decisions, det.Push(res.Samples[victim.ID()])...)
	})
	return decisions
}

func alarmRate(ds []Decision, from, to float64) float64 {
	n, alarms := 0, 0
	for _, d := range ds {
		if d.Time >= from && d.Time < to {
			n++
			if d.Alarm {
				alarms++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(alarms) / float64(n)
}

func firstAlarm(ds []Decision) float64 {
	for _, d := range ds {
		if d.Alarm {
			return d.Time
		}
	}
	return math.NaN()
}

func TestParamsDefaultsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table I: k=1.125, HC=30 gives 99.9% confidence.
	if conf := p.Confidence(); conf < 0.999 {
		t.Errorf("confidence = %v, want >= 0.999", conf)
	}
	// Analytic minimum delays: HC*DW*TPCM = 15 s, HP*DWP*DW*TPCM = 25 s.
	if d := p.MinDetectionDelayB(); math.Abs(d-15) > 1e-9 {
		t.Errorf("SDS/B min delay = %v, want 15", d)
	}
	if d := p.MinDetectionDelayP(); math.Abs(d-25) > 1e-9 {
		t.Errorf("SDS/P min delay = %v, want 25", d)
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.TPCM = 0 },
		func(p *Params) { p.W = 0 },
		func(p *Params) { p.DW = p.W + 1 },
		func(p *Params) { p.Alpha = 0 },
		func(p *Params) { p.Alpha = 1.5 },
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.HC = 0 },
		func(p *Params) { p.HP = 0 },
		func(p *Params) { p.WPFactor = 1 },
		func(p *Params) { p.DWP = 0 },
		func(p *Params) { p.PeriodTolerance = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestConfidenceVacuousBelowOne(t *testing.T) {
	p := DefaultParams()
	p.K = 0.9
	if p.Confidence() != 0 {
		t.Error("k<1 should give zero confidence")
	}
}

func TestViolationCounter(t *testing.T) {
	v := violationCounter{threshold: 3}
	if v.observe(true) || v.observe(true) {
		t.Error("alarm before threshold")
	}
	if !v.observe(true) {
		t.Error("no alarm at threshold")
	}
	if !v.observe(true) {
		t.Error("alarm should persist under continued anomalies")
	}
	if v.observe(false) {
		t.Error("alarm should clear on normal observation")
	}
	if v.observe(true) || v.observe(true) {
		t.Error("counter should have reset")
	}
}

func TestBuildProfileValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := BuildProfile(make([]float64, 10), make([]float64, 10), p); err == nil {
		t.Error("short profiling data accepted")
	}
	bad := p
	bad.W = 0
	if _, err := BuildProfile(make([]float64, 300), make([]float64, 300), bad); err == nil {
		t.Error("invalid params accepted")
	}
	// One NaN AccessNum among 30,000 samples, or two near-overflow ones,
	// would make a NaN or infinite bound that blinds SDS/B.
	for _, spoil := range []map[int]float64{
		{12345: math.NaN()},
		{100: 1e308, 101: 1e308},
		{29999: math.Inf(1)},
		{0: math.Inf(-1), 20000: math.Inf(1)},
	} {
		access, miss := make([]float64, 30000), make([]float64, 30000)
		for i := range access {
			access[i], miss[i] = 1000+float64(i%7), 50
		}
		for i, v := range spoil {
			access[i] = v
		}
		if prof, err := BuildProfile(access, miss, p); err == nil {
			t.Errorf("AccessNum %v: non-finite profile %+v accepted", spoil, prof)
		}
	}
}

// TestBuildProfileMatchesSDSB: a profile is SDS/B's own smoothing of the
// same samples, so its four moments are, bit for bit, MeanStd over the
// EWMA values SDS/B reports at each of its decisions.
func TestBuildProfileMatchesSDSB(t *testing.T) {
	p := DefaultParams()
	for _, app := range []string{"KM", "FN"} {
		srv := vmm.MustNewServer(vmm.DefaultConfig())
		vm, err := srv.AddApp("victim", workload.MustByAbbrev(app).Service())
		if err != nil {
			t.Fatal(err)
		}
		access, miss := runSamples(srv, vm.ID(), 120)
		prof, err := BuildProfile(access, miss, p)
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewSDSB(prof, p)
		if err != nil {
			t.Fatal(err)
		}
		var accE, missE []float64
		for i := range access {
			if len(det.Push(pcm.Sample{AccessNum: access[i], MissNum: miss[i]})) > 0 {
				a, m := det.EWMAValues()
				accE, missE = append(accE, a), append(missE, m)
			}
		}
		var want Profile
		want.AccessMean, want.AccessStd = stats.MeanStd(accE)
		want.MissMean, want.MissStd = stats.MeanStd(missE)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"AccessMean", prof.AccessMean, want.AccessMean},
			{"AccessStd", prof.AccessStd, want.AccessStd},
			{"MissMean", prof.MissMean, want.MissMean},
			{"MissStd", prof.MissStd, want.MissStd},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%s %s: profile %v, SDS/B's EWMA %v", app, c.name, c.got, c.want)
			}
		}
	}
}

func TestProfileNonPeriodicApp(t *testing.T) {
	prof := profileApp(t, "KM", 60, DefaultParams())
	if prof.AccessMean <= 0 || prof.AccessStd <= 0 {
		t.Errorf("profile = %+v", prof)
	}
	if prof.Periodic {
		t.Errorf("KM profiled as periodic: %+v", prof)
	}
	lo, hi := prof.AccessBounds(1.125)
	if lo >= hi || lo >= prof.AccessMean || hi <= prof.AccessMean {
		t.Errorf("bounds [%v,%v] around mean %v", lo, hi, prof.AccessMean)
	}
}

func TestProfilePeriodicApp(t *testing.T) {
	prof := profileApp(t, "FN", 90, DefaultParams())
	if !prof.Periodic {
		t.Fatalf("FN not profiled as periodic: %+v", prof)
	}
	if math.Abs(prof.Period-17) > 3 {
		t.Errorf("FN profiled period = %v MA samples, want ~17", prof.Period)
	}
}

func TestSDSBCleanRunQuiet(t *testing.T) {
	p := DefaultParams()
	prof := profileApp(t, "KM", 300, p)
	det, err := NewSDSB(prof, p)
	if err != nil {
		t.Fatal(err)
	}
	ds := runDetector(t, "KM", nil, 300, det)
	if len(ds) == 0 {
		t.Fatal("no decisions")
	}
	if rate := alarmRate(ds, 0, 300); rate > 0.05 {
		t.Errorf("clean-run alarm rate = %v, want <= 0.05", rate)
	}
}

func TestSDSBDetectsBusLock(t *testing.T) {
	p := DefaultParams()
	prof := profileApp(t, "KM", 300, p)
	det, _ := NewSDSB(prof, p)
	atk, _ := attack.NewBusLock(attack.Window{Start: 150, End: 300}, 0.7)
	ds := runDetector(t, "KM", atk, 300, det)
	fa := firstAlarm(ds)
	if math.IsNaN(fa) {
		t.Fatal("bus lock never detected")
	}
	// The analytic minimum is HC*DW*TPCM = 15 s when the violation
	// counter starts empty; pre-charged counters can shave a few seconds.
	delay := fa - 150
	if delay < 5 {
		t.Errorf("delay %v implausibly short", delay)
	}
	if delay > 35 {
		t.Errorf("delay %v too long", delay)
	}
	// Alarm should persist through the attack (recall ~ 1).
	if rate := alarmRate(ds, 190, 300); rate < 0.95 {
		t.Errorf("alarm rate during attack = %v", rate)
	}
	// And be quiet before it.
	if rate := alarmRate(ds, 0, 150); rate > 0.05 {
		t.Errorf("alarm rate before attack = %v", rate)
	}
}

func TestSDSBDetectsCleansing(t *testing.T) {
	p := DefaultParams()
	prof := profileApp(t, "KM", 300, p)
	det, _ := NewSDSB(prof, p)
	atk, _ := attack.NewLLCCleansing(attack.Window{Start: 150, End: 300}, 0.6, 2e6)
	ds := runDetector(t, "KM", atk, 300, det)
	fa := firstAlarm(ds)
	if math.IsNaN(fa) || fa < 150 {
		t.Fatalf("first alarm at %v", fa)
	}
	if rate := alarmRate(ds, 190, 300); rate < 0.95 {
		t.Errorf("alarm rate during cleansing = %v", rate)
	}
}

func TestSDSBRejectsBadProfile(t *testing.T) {
	p := DefaultParams()
	if _, err := NewSDSB(Profile{AccessStd: -1}, p); err == nil {
		t.Error("negative std accepted")
	}
	for _, prof := range []Profile{
		{AccessMean: math.NaN(), AccessStd: math.NaN()},
		{AccessMean: math.Inf(1), AccessStd: math.NaN()},
		{AccessMean: 1000, AccessStd: math.Inf(1)},
		{MissMean: math.Inf(-1)},
		{MissStd: math.NaN()},
	} {
		if _, err := NewSDSB(prof, p); err == nil {
			t.Errorf("non-finite profile %+v accepted", prof)
		}
	}
	bad := p
	bad.W = 0
	if _, err := NewSDSB(Profile{}, bad); err == nil {
		t.Error("bad params accepted")
	}
}

func TestSDSPRequiresPeriodicProfile(t *testing.T) {
	if _, err := NewSDSP(Profile{}, DefaultParams()); err == nil {
		t.Error("non-periodic profile accepted")
	}
	for _, period := range []float64{0, -17, math.NaN(), math.Inf(1)} {
		if _, err := NewSDSP(Profile{Periodic: true, Period: period}, DefaultParams()); err == nil {
			t.Errorf("period %v accepted", period)
		}
	}
}

func TestSDSPDetectsAttacksOnFaceNet(t *testing.T) {
	p := DefaultParams()
	prof := profileApp(t, "FN", 90, p)
	for _, tc := range []struct {
		name string
		mk   func() *attack.Attacker
	}{
		{"buslock", func() *attack.Attacker {
			a, _ := attack.NewBusLock(attack.Window{Start: 150, End: 300}, 0.7)
			return a
		}},
		{"cleansing", func() *attack.Attacker {
			a, _ := attack.NewLLCCleansing(attack.Window{Start: 150, End: 300}, 0.6, 2e6)
			return a
		}},
	} {
		det, err := NewSDSP(prof, p)
		if err != nil {
			t.Fatal(err)
		}
		ds := runDetector(t, "FN", tc.mk(), 300, det)
		fa := firstAlarm(ds)
		if math.IsNaN(fa) || fa < 150 {
			t.Errorf("%s: first alarm at %v", tc.name, fa)
			continue
		}
		if rate := alarmRate(ds, 0, 150); rate > 0.1 {
			t.Errorf("%s: pre-attack alarm rate %v", tc.name, rate)
		}
		if rate := alarmRate(ds, 200, 300); rate < 0.8 {
			t.Errorf("%s: during-attack alarm rate %v", tc.name, rate)
		}
	}
}

func TestSDSPCleanRunQuiet(t *testing.T) {
	p := DefaultParams()
	prof := profileApp(t, "FN", 90, p)
	det, _ := NewSDSP(prof, p)
	ds := runDetector(t, "FN", nil, 300, det)
	if rate := alarmRate(ds, 0, 300); rate > 0.1 {
		t.Errorf("clean FN alarm rate = %v", rate)
	}
}

func TestSDSCombined(t *testing.T) {
	p := DefaultParams()
	// Non-periodic app: SDS should behave as SDS/B alone.
	profKM := profileApp(t, "KM", 60, p)
	sdsKM, err := NewSDS(profKM, p)
	if err != nil {
		t.Fatal(err)
	}
	if sdsKM.Periodic() {
		t.Error("SDS engaged SDS/P for KM")
	}
	// Periodic app: both engaged, alarm is the conjunction.
	profFN := profileApp(t, "FN", 90, p)
	sdsFN, err := NewSDS(profFN, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sdsFN.Periodic() {
		t.Fatal("SDS did not engage SDS/P for FN")
	}
	atk, _ := attack.NewBusLock(attack.Window{Start: 150, End: 300}, 0.7)
	ds := runDetector(t, "FN", atk, 300, sdsFN)
	fa := firstAlarm(ds)
	if math.IsNaN(fa) || fa < 150 {
		t.Fatalf("combined SDS first alarm at %v", fa)
	}
	if rate := alarmRate(ds, 0, 150); rate > 0.05 {
		t.Errorf("combined SDS pre-attack alarm rate %v", rate)
	}
	if rate := alarmRate(ds, 200, 300); rate < 0.85 {
		t.Errorf("combined SDS during-attack alarm rate %v", rate)
	}
}

// TestSDSEqualsConjunctionOfParts: on a periodic trace the combined
// scheme — which feeds SDS/P from SDS/B's moving average — decides exactly
// what stand-alone SDS/B and SDS/P, each averaging for itself, decide
// together: SDS/B's cadence, alarm = SDS/B's state AND SDS/P's latest.
func TestSDSEqualsConjunctionOfParts(t *testing.T) {
	p := DefaultParams()
	prof := profileApp(t, "FN", 90, p)
	sds, _ := NewSDS(prof, p)
	b, _ := NewSDSB(prof, p)
	pd, _ := NewSDSP(prof, p)
	// runDetector's server is seeded, so each run sees the same samples.
	run := func(det Detector) []Decision {
		atk, _ := attack.NewBusLock(attack.Window{Start: 150, End: 300}, 0.7)
		return runDetector(t, "FN", atk, 300, det)
	}
	got, bs, ps := run(sds), run(b), run(pd)
	if len(got) == 0 || len(got) != len(bs) || len(ps) == 0 {
		t.Fatalf("decision counts: SDS %d, SDS/B %d, SDS/P %d", len(got), len(bs), len(ps))
	}
	alarms, pAlarm, next := 0, false, 0
	for i, d := range bs {
		for next < len(ps) && ps[next].Time <= d.Time {
			pAlarm = ps[next].Alarm
			next++
		}
		want := Decision{Time: d.Time, Alarm: d.Alarm && pAlarm}
		if got[i] != want {
			t.Fatalf("decision %d: SDS %+v, parts give %+v", i, got[i], want)
		}
		if want.Alarm {
			alarms++
		}
	}
	if alarms == 0 || alarms == len(got) {
		t.Errorf("trace does not exercise both outcomes: %d of %d alarm", alarms, len(got))
	}
}

func TestSDSNames(t *testing.T) {
	p := DefaultParams()
	prof := profileApp(t, "KM", 60, p)
	b, _ := NewSDSB(prof, p)
	s, _ := NewSDS(prof, p)
	if b.Name() != "SDS/B" || s.Name() != "SDS" {
		t.Error("names wrong")
	}
	profFN := profileApp(t, "FN", 90, p)
	pd, _ := NewSDSP(profFN, p)
	if pd.Name() != "SDS/P" {
		t.Error("SDS/P name wrong")
	}
}

func TestKSParamsValidation(t *testing.T) {
	if err := DefaultKSParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*KSParams){
		func(p *KSParams) { p.WR = 0 },
		func(p *KSParams) { p.WM = 0 },
		func(p *KSParams) { p.LM = 0.5 },
		func(p *KSParams) { p.LR = 1 },
		func(p *KSParams) { p.Alpha = 0 },
		func(p *KSParams) { p.Consecutive = 0 },
		func(p *KSParams) { p.ClearConsecutive = 0 },
		func(p *KSParams) { p.ClearConsecutive = -1 },
	}
	for i, mutate := range bad {
		p := DefaultKSParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := NewKSTestDetector(KSParams{}, nil); err == nil {
		t.Error("zero params accepted")
	}
}

func TestKSTestThrottlesOnSchedule(t *testing.T) {
	throttles := 0
	det, err := NewKSTestDetector(DefaultKSParams(), func(dur float64) {
		throttles++
		if dur != 1 {
			t.Errorf("throttle duration %v, want 1", dur)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Feed 90 seconds of samples at 10 ms: expect reference collection at
	// t=0, 30, 60 (3 refreshes).
	for i := 1; i <= 9000; i++ {
		det.Push(pcm.Sample{Time: float64(i) * 0.01, AccessNum: 100, MissNum: 10})
	}
	if throttles != 3 {
		t.Errorf("throttled %d times over 90s, want 3 (every LR=30s)", throttles)
	}
}

func TestKSTestStableStreamQuiet(t *testing.T) {
	det, _ := NewKSTestDetector(DefaultKSParams(), nil)
	var ds []Decision
	// Perfectly stationary stream: no alarms.
	for i := 1; i <= 12000; i++ {
		s := pcm.Sample{Time: float64(i) * 0.01, AccessNum: 100 + float64(i%7), MissNum: 10 + float64(i%3)}
		ds = append(ds, det.Push(s)...)
	}
	if len(ds) == 0 {
		t.Fatal("no decisions from KS detector")
	}
	for _, d := range ds {
		if d.Alarm {
			t.Fatalf("false alarm at %v on stationary stream", d.Time)
		}
	}
}

func TestKSTestDetectsLevelShift(t *testing.T) {
	det, _ := NewKSTestDetector(DefaultKSParams(), nil)
	var ds []Decision
	// Shift mid-cycle (references refresh at ~0/30/60/90 s) so the
	// reference stays pre-shift; without throttling a shift landing on a
	// refresh would contaminate the reference.
	for i := 1; i <= 12000; i++ {
		ts := float64(i) * 0.01
		level := 100.0
		if ts >= 70 {
			level = 30 // bus-lock style collapse
		}
		s := pcm.Sample{Time: ts, AccessNum: level + float64(i%7), MissNum: 10}
		ds = append(ds, det.Push(s)...)
	}
	fa := firstAlarm(ds)
	if math.IsNaN(fa) || fa < 70 {
		t.Fatalf("first alarm at %v", fa)
	}
	// The scheme needs 4 consecutive rejections at L_M=2s: >= ~8s delay.
	if fa > 90 {
		t.Errorf("KS detection too slow: %v", fa)
	}
}

func TestKSTestEndToEndDetectsAttack(t *testing.T) {
	// Full pipeline with physical throttling on the server.
	cfg := vmm.DefaultConfig()
	srv := vmm.MustNewServer(cfg)
	victim, _ := srv.AddApp("victim", workload.MustByAbbrev("KM").Service())
	atk, _ := attack.NewBusLock(attack.Window{Start: 150, End: 300}, 0.7)
	srv.AddAttacker("attacker", atk)
	det, _ := NewKSTestDetector(DefaultKSParams(), func(dur float64) {
		srv.ThrottleOthers(victim.ID(), dur)
	})
	var ds []Decision
	srv.RunUntil(300, func(res vmm.StepResult) {
		ds = append(ds, det.Push(res.Samples[victim.ID()])...)
	})
	// KStest may raise false positives before the attack (Section III-B
	// measures ~20% for k-means); assert only that the attack itself is
	// detected reasonably promptly and held.
	delays := metrics.DetectionDelay(ds, []metrics.Interval{{Start: 150, End: 300}})
	if math.IsNaN(delays[0]) {
		t.Fatal("attack never detected")
	}
	if delays[0] > 60 {
		t.Errorf("KS end-to-end delay = %v s", delays[0])
	}
	if rate := alarmRate(ds, 220, 300); rate < 0.8 {
		t.Errorf("alarm rate late in attack = %v", rate)
	}
}

func TestDetectionDelayOrdering(t *testing.T) {
	// The paper's Fig. 13 headline: SDS responds faster than KStest.
	// Single runs are noisy (the KS delay depends on where the attack
	// lands in the reference cycle), so compare means over several seeds
	// and attack phases.
	p := DefaultParams()
	prof := profileApp(t, "KM", 300, p)

	mkRun := func(det Detector, seed uint64, start float64) float64 {
		cfg := vmm.DefaultConfig()
		cfg.Seed = seed
		srv := vmm.MustNewServer(cfg)
		victim, _ := srv.AddApp("victim", workload.MustByAbbrev("KM").Service())
		atk, _ := attack.NewBusLock(attack.Window{Start: start, End: start + 200}, 0.7)
		srv.AddAttacker("attacker", atk)
		if ks, ok := det.(*KSTestDetector); ok {
			ks.throttle = func(dur float64) { srv.ThrottleOthers(victim.ID(), dur) }
		}
		var ds []Decision
		srv.RunUntil(start+200, func(res vmm.StepResult) {
			ds = append(ds, det.Push(res.Samples[victim.ID()])...)
		})
		return metrics.DetectionDelay(ds, []metrics.Interval{{Start: start, End: start + 200}})[0]
	}

	var sdsDelays, ksDelays []float64
	for i, start := range []float64{143, 150, 167} {
		seed := uint64(11 + i)
		sds, _ := NewSDS(prof, p)
		ks, _ := NewKSTestDetector(EvaluationKSParams(), nil)
		sdsDelays = append(sdsDelays, mkRun(sds, seed, start))
		ksDelays = append(ksDelays, mkRun(ks, seed, start))
	}
	sdsMean, ksMean := metrics.MeanDelay(sdsDelays), metrics.MeanDelay(ksDelays)
	if math.IsNaN(sdsMean) || math.IsNaN(ksMean) {
		t.Fatalf("delays: sds=%v ks=%v", sdsDelays, ksDelays)
	}
	if sdsMean >= ksMean {
		t.Errorf("mean SDS delay %v should beat mean KStest delay %v (%v vs %v)",
			sdsMean, ksMean, sdsDelays, ksDelays)
	}
}
