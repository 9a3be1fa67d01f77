package core

import (
	"math"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// runDynamic streams a dynamic-application run through a detector built by
// mk, which receives the victim VM (for the utilization source).
func runDynamic(t *testing.T, atk *attack.Attacker, dur float64, seed uint64, mk func(*vmm.VM) Detector) []Decision {
	t.Helper()
	cfg := vmm.DefaultConfig()
	cfg.Seed = seed
	srv := vmm.MustNewServer(cfg)
	victim, err := srv.AddApp("victim", workload.Dynamic())
	if err != nil {
		t.Fatal(err)
	}
	if atk != nil {
		if _, err := srv.AddAttacker("attacker", atk); err != nil {
			t.Fatal(err)
		}
	}
	det := mk(victim)
	var ds []Decision
	srv.RunUntil(dur, func(res vmm.StepResult) {
		ds = append(ds, det.Push(res.Samples[victim.ID()])...)
	})
	return ds
}

func TestSDSUValidation(t *testing.T) {
	if _, err := NewSDSU(nil, DefaultParams()); err == nil {
		t.Error("nil utilization source accepted")
	}
	bad := DefaultParams()
	bad.W = 0
	if _, err := NewSDSU(func() float64 { return 1 }, bad); err == nil {
		t.Error("bad params accepted")
	}
}

func TestSDSUCalibration(t *testing.T) {
	d, err := NewSDSU(func() float64 { return 1 }, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.Calibrated() {
		t.Error("calibrated before any data")
	}
	ds := runDynamic(t, nil, 120, 3, func(vm *vmm.VM) Detector {
		d2, _ := NewSDSU(vm.LastSpeed, DefaultParams())
		d = d2
		return d2
	})
	if !d.Calibrated() {
		t.Fatal("not calibrated after 120s")
	}
	floor, ceil := d.Thresholds()
	if floor <= 0 || floor >= 1 {
		t.Errorf("utilization floor = %v", floor)
	}
	if ceil <= 0 {
		t.Errorf("miss ceiling = %v", ceil)
	}
	if len(ds) == 0 {
		t.Error("no decisions")
	}
}

func TestSDSUQuietOnDynamicApp(t *testing.T) {
	// The point of the extension: no false alarms on a workload whose
	// levels jump 0.5x..1.7x — where SDS/B's profile-based bounds break.
	var alarms, total int
	ds := runDynamic(t, nil, 600, 5, func(vm *vmm.VM) Detector {
		d, _ := NewSDSU(vm.LastSpeed, DefaultParams())
		return d
	})
	for _, d := range ds {
		total++
		if d.Alarm {
			alarms++
		}
	}
	if frac := float64(alarms) / float64(total); frac > 0.02 {
		t.Errorf("SDS/U false alarm rate on dynamic app = %v", frac)
	}
}

func TestSDSBBreaksOnDynamicApp(t *testing.T) {
	// Counterpart: the profiled SDS/B cannot cover the dynamic app's
	// range without false positives (this is what motivates SDS/U).
	cfg := vmm.DefaultConfig()
	srv := vmm.MustNewServer(cfg)
	vm, _ := srv.AddApp("victim", workload.Dynamic())
	access, miss := runSamples(srv, vm.ID(), 300)
	prof, err := BuildProfile(access, miss, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	det, _ := NewSDSB(prof, DefaultParams())
	ds := runDynamic(t, nil, 600, 5, func(*vmm.VM) Detector { return det })
	alarms := 0
	for _, d := range ds {
		if d.Alarm {
			alarms++
		}
	}
	if frac := float64(alarms) / float64(len(ds)); frac < 0.05 {
		t.Skipf("SDS/B coped with the dynamic app this seed (fp=%v); motivation weaker but not wrong", frac)
	}
}

func TestSDSUDetectsAttacksOnDynamicApp(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *attack.Attacker
	}{
		{"buslock", func() *attack.Attacker {
			a, _ := attack.NewBusLock(attack.Window{Start: 300, End: 600}, 0.7)
			return a
		}},
		{"cleansing", func() *attack.Attacker {
			a, _ := attack.NewLLCCleansing(attack.Window{Start: 300, End: 600}, 0.6, 2e6)
			return a
		}},
	} {
		ds := runDynamic(t, tc.mk(), 600, 7, func(vm *vmm.VM) Detector {
			d, _ := NewSDSU(vm.LastSpeed, DefaultParams())
			return d
		})
		first := math.NaN()
		for _, d := range ds {
			if d.Alarm {
				first = d.Time
				break
			}
		}
		if math.IsNaN(first) {
			t.Errorf("%s: never detected", tc.name)
			continue
		}
		if first < 300 {
			t.Errorf("%s: false alarm at %v before attack", tc.name, first)
		}
		if first > 340 {
			t.Errorf("%s: detection at %v too slow", tc.name, first)
		}
		// Alarm holds through the attack.
		held, n := 0, 0
		for _, d := range ds {
			if d.Time > 350 {
				n++
				if d.Alarm {
					held++
				}
			}
		}
		if frac := float64(held) / float64(n); frac < 0.9 {
			t.Errorf("%s: alarm held %v of the attack", tc.name, frac)
		}
	}
}

func TestSDSUName(t *testing.T) {
	d, _ := NewSDSU(func() float64 { return 1 }, DefaultParams())
	if d.Name() != "SDS/U" {
		t.Error("name wrong")
	}
}
