package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/cluster"
	"memdos/internal/core"
	"memdos/internal/mem"
	"memdos/internal/respond"
	"memdos/internal/trace"
)

// bitsDigest folds the IEEE-754 bits of every value, in order, into one
// FNV-1a hash: two series with equal digests are equal bit for bit.
func bitsDigest(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%d/%016x", len(vals), h.Sum64())
}

func intsDigest(vals []int) string {
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v)
	}
	return bitsDigest(f)
}

func seriesDigest(s *trace.Series) string {
	return fmt.Sprintf("%s@%v+%v:%s", s.Name, s.Start, s.Interval, bitsDigest(s.Values))
}

// TestSamplePathPins pins, bit for bit, every study that reads the
// victim's PCM samples straight off a simulated server. Floats print in
// Go's shortest round-trip form, so equal strings are equal bits. Any
// change to how a server is built or stepped, or to how its samples reach
// a detector, must reproduce these values exactly.
func TestSamplePathPins(t *testing.T) {
	params := core.DefaultParams()
	for _, tc := range []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"Fig7SDSBExample", func() (string, error) {
			r, err := Fig7SDSBExample()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("lower=%v upper=%v alarm=%d attack=%d ewma=%s",
				r.Lower, r.Upper, r.AlarmWindow, r.AttackWindow, bitsDigest(r.EWMA)), nil
		}, "lower=19464.470464949172 upper=20050.29317953077 alarm=176 attack=146 ewma=317/71d67d43d19036f5"},
		{"Fig8SDSPExample", func() (string, error) {
			r, err := Fig8SDSPExample()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("normal=%v alarm=%d attack=%d ma=%s periods=%s windows=%s",
				r.NormalPeriod, r.AlarmWindow, r.AttackWindow, bitsDigest(r.MA),
				bitsDigest(r.Periods), intsDigest(r.EvalWindows)), nil
		}, "normal=17 alarm=284 attack=236 ma=477/6a9aaceb0a321231 periods=45/e958787b722deacc windows=45/57a8c1ccbc02cc32"},
		{"MeasurementTrace/KM/buslock", func() (string, error) { return tracePin("KM", BusLock) }, "access=victim.access@0.01+0.01:12000/d2b17538f6bc819b miss=victim.miss@0.01+0.01:12000/6189ba1b9002c259 before=19688.154840057396 during=5934.548375918007 periods=0/0"},
		{"MeasurementTrace/FN/cleansing", func() (string, error) { return tracePin("FN", Cleansing) }, "access=victim.access@0.01+0.01:12000/2f3258bba95a0d82 miss=victim.miss@0.01+0.01:12000/cf95cb8ea27472e1 before=1017.8447384434617 during=6315.269203429801 periods=17/28"},
		{"ProfileApp/KM", func() (string, error) {
			p, err := ProfileApp("KM", ProfileDuration, params)
			return fmt.Sprintf("%+v", p), err
		}, "{AccessMean:19757.38182223997 AccessStd:260.3656509251554 MissMean:987.8690911119999 MissStd:13.018282546257796 Periodic:false Period:0}"},
		{"ProfileApp/FN", func() (string, error) {
			p, err := ProfileApp("FN", ProfileDuration, params)
			return fmt.Sprintf("%+v", p), err
		}, "{AccessMean:16997.438170968377 AccessStd:660.8318922230648 MissMean:1019.8462902581022 MissStd:39.649913533383916 Periodic:true Period:17}"},
		{"Fig1KStestFalsePositives", func() (string, error) {
			r, err := Fig1KStestFalsePositives(120, []uint64{2})
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, row := range r.Rows {
				if row.App == "KM" || row.App == "TS" {
					fmt.Fprintf(&b, "%s=%v ", row.App, row.FalseAlarmRate)
				}
			}
			flags := make([]int, len(r.TeraSortFlags))
			for i, f := range r.TeraSortFlags {
				if f {
					flags[i] = 1
				}
			}
			fmt.Fprintf(&b, "flags=%s times=%s", intsDigest(flags), bitsDigest(r.FlagTimes))
			return b.String(), nil
		}, "KM=0.25 TS=0.5 flags=56/d3eb36a7eebf75a5 times=56/d3dc609d6cb80735"},
		{"Run/KM/cleansing/SDS", func() (string, error) { return runPin("KM", Cleansing, SDSFactory) }, "access=victim.access@0.01+0.01:60000/403a904b19215f26 miss=victim.miss@0.01+0.01:60000/7cad05b0a36c0d6e times=1197/d1394f1144ad9976 alarms=1197/7ed68b5cc042bd85"},
		{"Run/FN/buslock/KStest", func() (string, error) { return runPin("FN", BusLock, KSFactory) }, "access=victim.access@0.01+0.01:60000/0b044a00d8c6ad7c miss=victim.miss@0.01+0.01:60000/094ec4b20e735515 times=100/6304bc289e057342 alarms=100/98b451dfc1511d18"},
		{"ContainerStudy/buslock", func() (string, error) {
			r, err := ContainerStudy(BusLock, 120, 3)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", *r), nil
		}, "{CleanThroughput:1.8333333333333333 AttackedThroughput:0.5666666666666667 Accuracy:{Recall:1 Specificity:1 MeanDelay:16} SamplesPerInstance:200}"},
		{"MicrosimCalibration", func() (string, error) {
			micro, fast, err := MicrosimCalibration()
			return fmt.Sprintf("micro=%v fast=%v", micro, fast), err
		}, "micro=11.68814866067016 fast=12.400000000000027"},
		{"ClusterStudy/ci-smoke", func() (string, error) {
			// The CI smoke: memdos cluster -hosts 8 -victims 4
			// -attackers 2 -vms 32 -dur 90 -delay 30 -churn 20.
			spec := DefaultClusterStudySpec()
			spec.Hosts, spec.Victims, spec.Attackers, spec.Utilities = 8, 4, 2, 26
			spec.Duration, spec.RelocationDelay, spec.ChurnInterval = 90, 30, 20
			r, err := ClusterStudy(spec)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, c := range r.Cells {
				fmt.Fprintf(&b, "%+v\n", c)
			}
			return b.String(), nil
		}, `{Scheduler:round-robin Placement:random CleanSpeed:1 AttackedSpeed:0.75 MitigatedSpeed:0.9139000000000483 Recovered:0.6556000000001934 Migrations:1 AttackerMoves:0 Colocation:0.14722222222222223 AlarmFraction:0.05416666666666667}
{Scheduler:round-robin Placement:targeted CleanSpeed:1 AttackedSpeed:0.6500000000000098 MitigatedSpeed:0.8078958333333566 Recovered:0.4511309523810034 Migrations:4 AttackerMoves:2 Colocation:0.5722222222222222 AlarmFraction:0.2}
{Scheduler:round-robin Placement:churn CleanSpeed:1 AttackedSpeed:0.8277777777778071 MitigatedSpeed:0.7891993055556249 Recovered:-0.2240040322578706 Migrations:4 AttackerMoves:6 Colocation:0.10833333333333334 AlarmFraction:0.17777777777777778}
{Scheduler:bin-pack Placement:random CleanSpeed:1 AttackedSpeed:1 MitigatedSpeed:0.9880000000000517 Recovered:0 Migrations:0 AttackerMoves:0 Colocation:0 AlarmFraction:0}
{Scheduler:bin-pack Placement:targeted CleanSpeed:1 AttackedSpeed:0 MitigatedSpeed:0.4528333333333161 Recovered:0.4528333333333161 Migrations:8 AttackerMoves:2 Colocation:0.5 AlarmFraction:0.39861111111111114}
{Scheduler:bin-pack Placement:churn CleanSpeed:1 AttackedSpeed:0.6888888888889697 MitigatedSpeed:0.768032777777811 Recovered:0.25439107142848444 Migrations:6 AttackerMoves:6 Colocation:0.1388888888888889 AlarmFraction:0.29583333333333334}
{Scheduler:spread Placement:random CleanSpeed:1 AttackedSpeed:0.75 MitigatedSpeed:0.9139000000000483 Recovered:0.6556000000001934 Migrations:1 AttackerMoves:0 Colocation:0.14722222222222223 AlarmFraction:0.05416666666666667}
{Scheduler:spread Placement:targeted CleanSpeed:1 AttackedSpeed:0.6500000000000098 MitigatedSpeed:0.7214458333333537 Recovered:0.2041309523809882 Migrations:6 AttackerMoves:2 Colocation:0.5722222222222222 AlarmFraction:0.3}
{Scheduler:spread Placement:churn CleanSpeed:1 AttackedSpeed:0.8277777777778071 MitigatedSpeed:0.8166437500000773 Recovered:-0.06464919354811996 Migrations:4 AttackerMoves:6 Colocation:0.24722222222222223 AlarmFraction:0.17777777777777778}
`},
		{"BandwidthStudy/short", func() (string, error) {
			// 1 and 2 sockets, the remote arm, and the full ladder's
			// migration: the DRAM arbiter's multi-socket paths.
			r, err := BandwidthStudy(shortBandwidthSpec())
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, c := range r.Cells {
				fmt.Fprintf(&b, "%+v\n", c)
			}
			for _, l := range r.Loops {
				fmt.Fprintf(&b, "%d/%v full=%+v contained=%+v throttle=%+v\n",
					l.Sockets, l.Remote, *l.Full, *l.Contained, *l.ThrottleOnly)
			}
			return b.String(), nil
		}, `{Sockets:1 Remote:false Detector:KStest Recall:1 Specificity:1 Delay:21.02000000000001}
{Sockets:1 Remote:false Detector:SDS Recall:1 Specificity:1 Delay:10}
{Sockets:2 Remote:false Detector:KStest Recall:1 Specificity:1 Delay:21.02000000000001}
{Sockets:2 Remote:false Detector:SDS Recall:1 Specificity:1 Delay:10}
{Sockets:2 Remote:true Detector:KStest Recall:1 Specificity:1 Delay:21.02000000000001}
{Sockets:2 Remote:true Detector:SDS Recall:1 Specificity:1 Delay:10}
1/false full={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:464.24 MitigatedTime:199.69 AttackedNormalized:3.094727018198787 MitigatedNormalized:1.331177921471902 Recovered:0.8418992457753874 Alarms:1 PeakLevel:5 Stats:{Sessions:1 Mitigated:0 Events:2 Throttles:3 BandwidthLimits:2 Partitions:0 Releases:1 Migrations:1 Escalations:5 Deescalations:0 Overrides:0 ActuatorErrors:0}} contained={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:464.24 MitigatedTime:203.65 AttackedNormalized:3.094727018198787 MitigatedNormalized:1.3575761615892274 Recovered:0.8292970117429908 Alarms:1 PeakLevel:4 Stats:{Sessions:1 Mitigated:1 Events:1 Throttles:3 BandwidthLimits:1 Partitions:0 Releases:0 Migrations:0 Escalations:4 Deescalations:0 Overrides:0 ActuatorErrors:0}} throttle={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:464.24 MitigatedTime:229.07 AttackedNormalized:3.094727018198787 MitigatedNormalized:1.5270315312312512 Recovered:0.7484008528784649 Alarms:1 PeakLevel:3 Stats:{Sessions:1 Mitigated:1 Events:1 Throttles:3 BandwidthLimits:0 Partitions:0 Releases:0 Migrations:0 Escalations:3 Deescalations:0 Overrides:0 ActuatorErrors:0}}
2/false full={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:464.24 MitigatedTime:199.69 AttackedNormalized:3.094727018198787 MitigatedNormalized:1.331177921471902 Recovered:0.8418992457753874 Alarms:1 PeakLevel:5 Stats:{Sessions:1 Mitigated:0 Events:2 Throttles:3 BandwidthLimits:2 Partitions:0 Releases:1 Migrations:1 Escalations:5 Deescalations:0 Overrides:0 ActuatorErrors:0}} contained={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:464.24 MitigatedTime:203.65 AttackedNormalized:3.094727018198787 MitigatedNormalized:1.3575761615892274 Recovered:0.8292970117429908 Alarms:1 PeakLevel:4 Stats:{Sessions:1 Mitigated:1 Events:1 Throttles:3 BandwidthLimits:1 Partitions:0 Releases:0 Migrations:0 Escalations:4 Deescalations:0 Overrides:0 ActuatorErrors:0}} throttle={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:464.24 MitigatedTime:229.07 AttackedNormalized:3.094727018198787 MitigatedNormalized:1.5270315312312512 Recovered:0.7484008528784649 Alarms:1 PeakLevel:3 Stats:{Sessions:1 Mitigated:1 Events:1 Throttles:3 BandwidthLimits:0 Partitions:0 Releases:0 Migrations:0 Escalations:3 Deescalations:0 Overrides:0 ActuatorErrors:0}}
2/true full={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:303.5 MitigatedTime:204.57999999999998 AttackedNormalized:2.0231984534364376 MitigatedNormalized:1.3637757482834478 Recovered:0.6444719525702 Alarms:1 PeakLevel:5 Stats:{Sessions:1 Mitigated:0 Events:2 Throttles:3 BandwidthLimits:2 Partitions:0 Releases:1 Migrations:1 Escalations:5 Deescalations:0 Overrides:0 ActuatorErrors:0}} contained={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:303.5 MitigatedTime:212.07 AttackedNormalized:2.0231984534364376 MitigatedNormalized:1.4137057529498034 Recovered:0.5956739852759138 Alarms:1 PeakLevel:4 Stats:{Sessions:1 Mitigated:1 Events:1 Throttles:3 BandwidthLimits:1 Partitions:0 Releases:0 Migrations:0 Escalations:4 Deescalations:0 Overrides:0 ActuatorErrors:0}} throttle={App:KM Mode:DRAM bandwidth CleanTime:150.01 AttackedTime:303.5 MitigatedTime:261.96999999999997 AttackedNormalized:2.0231984534364376 MitigatedNormalized:1.746350243317112 Recovered:0.27057137272786513 Alarms:1 PeakLevel:3 Stats:{Sessions:1 Mitigated:1 Events:1 Throttles:3 BandwidthLimits:0 Partitions:0 Releases:0 Migrations:0 Escalations:3 Deescalations:0 Overrides:0 ActuatorErrors:0}}
`},
		{"CompareDetectors/buslock/scenario1", func() (string, error) {
			return comparePin(CompareDetectors([]string{"KM", "FN"}, StandardFactories(false), BusLock, false, []uint64{1, 2}))
		}, "{App:KM Detector:KStest Recall:{Median:1 P10:1 P90:1} Spec:{Median:0.97 P10:0.946 P90:0.994} Delay:21.029999999999973}\n{App:KM Detector:SDS Recall:{Median:1 P10:1 P90:1} Spec:{Median:1 P10:1 P90:1} Delay:14}\n{App:FN Detector:KStest Recall:{Median:1 P10:1 P90:1} Spec:{Median:0.06 P10:0.06 P90:0.06} Delay:6.029999999999973}\n{App:FN Detector:SDS Recall:{Median:1 P10:1 P90:1} Spec:{Median:1 P10:1 P90:1} Delay:23.5}\n"},
		{"CompareDetectors/cleansing/scenario2", func() (string, error) {
			return comparePin(CompareDetectors([]string{"KM", "FN"}, StandardFactories(false), Cleansing, true, []uint64{1, 2}))
		}, "{App:KM Detector:KStest Recall:{Median:0.4936323366555925 P10:0.4606312292358804 P90:0.5266334440753044} Spec:{Median:0.626984126984127 P10:0.5063492063492063 P90:0.7476190476190476} Delay:17.57742902873064}\n{App:KM Detector:SDS Recall:{Median:0.7699490408951077 P10:0.7649877715191439 P90:0.7749103102710717} Spec:{Median:0.6833132193742457 P10:0.6570509933894123 P90:0.7095754453590792} Delay:9.831648368478128}\n{App:FN Detector:KStest Recall:{Median:1 P10:1 P90:1} Spec:{Median:0.06904761904761905 P10:0.06714285714285714 P90:0.07095238095238095} Delay:3.409537257367003}\n{App:FN Detector:SDS Recall:{Median:0.40585347979105063 P10:0.38911366948163173 P90:0.42259329010046953} Spec:{Median:0.8238899796458743 P10:0.8032245978709225 P90:0.8445553614208261} Delay:20.835558411836498}\n"},
		{"Sweep/alpha", func() (string, error) {
			return sweepPin(sweepFor("alpha").Run("KM", []float64{0.2, 0.8}, []uint64{7}))
		}, "[{Value:0.2 Recall:1 Specificity:0.9530201342281879 Delay:15} {Value:0.8 Recall:1 Specificity:1 Delay:15}]"},
		{"Sweep/k", func() (string, error) {
			return sweepPin(sweepFor("k").Run("KM", []float64{1.125, 1.5}, []uint64{7}))
		}, "[{Value:1.125 Recall:1 Specificity:0.9530201342281879 Delay:15} {Value:1.5 Recall:1 Specificity:0.9328859060402684 Delay:4.5}]"},
		{"Sweep/w", func() (string, error) {
			return sweepPin(sweepFor("w").Run("KM", []float64{100, 400}, []uint64{7}))
		}, "[{Value:100 Recall:1 Specificity:0.9531772575250836 Delay:15} {Value:400 Recall:1 Specificity:0.918918918918919 Delay:15}]"},
		{"Sweep/dw", func() (string, error) {
			return sweepPin(sweepFor("dw").Run("KM", []float64{20, 200}, []uint64{7}))
		}, "[{Value:20 Recall:1 Specificity:0.9362416107382551 Delay:6} {Value:200 Recall:0.8888888888888888 Specificity:1 Delay:60}]"},
		{"Sweep/wp", func() (string, error) {
			return sweepPin(sweepFor("wp").Run("FN", []float64{2, 6}, []uint64{7}))
		}, "[{Value:2 Recall:1 Specificity:1 Delay:23.5} {Value:6 Recall:1 Specificity:1 Delay:27.5}]"},
		{"Sweep/dwp", func() (string, error) {
			return sweepPin(sweepFor("dwp").Run("FN", []float64{5, 25}, []uint64{7}))
		}, "[{Value:5 Recall:1 Specificity:1 Delay:13.5} {Value:25 Recall:0.9090909090909091 Specificity:1 Delay:56}]"},
		{"AblationRawThreshold/TS", func() (string, error) {
			accs, err := AblationRawThreshold("TS", []uint64{8})
			return fmt.Sprintf("%+v", accs), err
		}, "map[SDS:{Recall:1 Specificity:0.9026845637583892 MeanDelay:0} naive-coarse:{Recall:0.00974074074074074 Specificity:0.9887659177278485 MeanDelay:0} naive-fine:{Recall:0.37125925925925923 Specificity:0.6245749716647776 MeanDelay:0}]"},
		{"Cluster/dram-churn-husks", huskClusterPin, "{Duration:300 Hosts:8 VMs:32 MeanVictimSpeed:0.6477503641348317 Migrations:6 AttackerMoves:109 AlarmTransitions:41 AlarmFraction:0.42500000000000004 ColocationFraction:0 Respond:{Sessions:4 Mitigated:4 Events:41 Throttles:49 BandwidthLimits:28 Partitions:16 Releases:9 Migrations:6 Escalations:62 Deescalations:28 Overrides:0 ActuatorErrors:0}}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// comparePin renders every cell of a detector comparison, one per line.
func comparePin(cells []ComparisonCell, err error) (string, error) {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%+v\n", c)
	}
	return b.String(), err
}

// sweepPin renders every point of a sensitivity sweep.
func sweepPin(pts []SweepPoint, err error) (string, error) {
	return fmt.Sprintf("%+v", pts), err
}

// runPin renders one Scenario 1 run at seed 3: the victim's two series
// and the detector's decision time-line.
func runPin(app string, mode AttackMode, factory DetectorFactory) (string, error) {
	r, err := Run(DefaultRunSpec(app, mode, 3), core.DefaultParams(), factory)
	if err != nil {
		return "", err
	}
	times := make([]float64, len(r.Decisions))
	alarms := make([]int, len(r.Decisions))
	for i, d := range r.Decisions {
		times[i] = d.Time
		if d.Alarm {
			alarms[i] = 1
		}
	}
	return fmt.Sprintf("access=%s miss=%s times=%s alarms=%s",
		seriesDigest(r.Access), seriesDigest(r.Miss), bitsDigest(times), intsDigest(alarms)), nil
}

// huskClusterPin renders a DRAM-on cluster whose churning attackers leave
// a departed husk behind on every move, with the bandwidth rung on so the
// ladder's releases land on husks too.
func huskClusterPin() (string, error) {
	params := core.DefaultParams()
	prof, err := ProfileApp("KM", ProfileDuration, params)
	if err != nil {
		return "", err
	}
	cfg := cluster.DefaultConfig()
	numa := mem.DefaultNUMAConfig(1)
	cfg.Host.Mem = &numa
	cfg.Placement = cluster.AttackChurn
	cfg.ChurnInterval = 20
	cfg.Workers = 1
	cfg.Detector = func(string) (core.Detector, error) { return core.NewSDS(prof, params) }
	cfg.Respond = respond.DefaultConfig()
	cfg.Respond.EscalateAfter = 10
	cfg.Respond.EnableBandwidth = true
	cfg.Respond.BandwidthBudget = MemBWBudget
	c, err := cluster.New(cfg)
	if err != nil {
		return "", err
	}
	for i := 0; i < 4; i++ {
		if err := c.AddVictim(fmt.Sprintf("victim%d", i), "KM"); err != nil {
			return "", err
		}
	}
	for i := 0; i < 8; i++ {
		var atk *attack.Attacker
		if i%2 == 0 {
			atk, err = attack.NewBusLock(attack.Always{}, BusLockDuty)
		} else {
			atk, err = attack.NewMemBandwidth(attack.Always{}, 3.2e10, 0.8, 1.0)
		}
		if err != nil {
			return "", err
		}
		if err := c.AddAttacker(fmt.Sprintf("attacker%d", i), atk, ""); err != nil {
			return "", err
		}
	}
	for i := 0; i < 20; i++ {
		if err := c.AddUtility(fmt.Sprintf("util%d", i)); err != nil {
			return "", err
		}
	}
	r, err := c.Run(300)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%+v", *r), nil
}

// tracePin renders one Figs. 2-6 panel at seed 4.
func tracePin(app string, mode AttackMode) (string, error) {
	r, err := MeasurementTrace(app, mode, 4)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("access=%s miss=%s before=%v during=%v periods=%v/%v",
		seriesDigest(r.Access), seriesDigest(r.Miss), r.BeforeMean, r.DuringMean,
		r.CleanPeriod, r.AttackedPeriod), nil
}
