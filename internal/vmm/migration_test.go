package vmm

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/pcm"
	"memdos/internal/workload"
)

// collectSamples steps the server n times and returns the given VM's
// samples.
func collectSamples(s *Server, id VMID, n int) []pcm.Sample {
	out := make([]pcm.Sample, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Step().Samples[id])
	}
	return out
}

// TestMigrationZeroDowntimeByteIdentical is the migration contract: a VM
// exported from one host and admitted into another at the same lockstep
// tick produces a sample stream byte-identical to a never-migrated run.
// The destination uses a different server seed to prove the VM's state
// (workload instance, RNG stream, counter timeline) travels whole.
func TestMigrationZeroDowntimeByteIdentical(t *testing.T) {
	const half = 500
	spec := workload.MustByAbbrev("KM").Service()

	// Control: one VM on one host for 2*half steps.
	ctrl := MustNewServer(DefaultConfig())
	cvm, err := ctrl.AddApp("vm", spec)
	if err != nil {
		t.Fatal(err)
	}
	want := collectSamples(ctrl, cvm.ID(), 2*half)

	// Migrated: same VM runs half steps on src, migrates to dst (stepped
	// empty in lockstep), runs half more there.
	src := MustNewServer(DefaultConfig())
	svm, err := src.AddApp("vm", spec)
	if err != nil {
		t.Fatal(err)
	}
	dstCfg := DefaultConfig()
	dstCfg.Seed = 99
	dst := MustNewServer(dstCfg)
	got := collectSamples(src, svm.ID(), half)
	for i := 0; i < half; i++ {
		dst.Step()
	}
	st, err := src.ExportVM(svm.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "vm" || st.IsAttacker() {
		t.Fatalf("exported state = (%q, attacker=%v), want (vm, false)", st.Name(), st.IsAttacker())
	}
	dvm, err := dst.AdmitVM(st)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, collectSamples(dst, dvm.ID(), half)...)

	if len(want) != 2*half || !reflect.DeepEqual(want, got) {
		t.Fatalf("migrated sample stream differs from never-migrated control (%d vs %d samples)", len(got), len(want))
	}
}

// TestMigrationHuskAndStateReuse pins the bookkeeping around export: the
// source slot becomes an inert departed husk, double export/admit fail,
// and the source keeps stepping cleanly.
func TestMigrationHuskAndStateReuse(t *testing.T) {
	src := MustNewServer(DefaultConfig())
	vm, err := src.AddApp("vm", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.AddApp("other", workload.Utility()); err != nil {
		t.Fatal(err)
	}
	collectSamples(src, vm.ID(), 10)
	st, err := src.ExportVM(vm.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !vm.Departed() {
		t.Error("exported VM not marked departed")
	}
	if src.Counter(vm.ID()) != nil {
		t.Error("husk still owns a counter")
	}
	if _, err := src.ExportVM(vm.ID()); err == nil {
		t.Error("double export succeeded")
	}
	src.Step()
	if vm.LastSpeed() != 0 {
		t.Errorf("departed husk has speed %v, want 0", vm.LastSpeed())
	}

	dst := MustNewServer(DefaultConfig())
	for dst.Now() < src.Now() {
		dst.Step()
	}
	if _, err := dst.AdmitVM(st); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AdmitVM(st); err == nil {
		t.Error("double admit succeeded")
	}

	badCfg := DefaultConfig()
	badCfg.TPCM = 0.02
	bad := MustNewServer(badCfg)
	st2, err := src.ExportVM(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.AdmitVM(st2); err == nil {
		t.Error("TPCM-mismatched admit succeeded")
	}
}

// TestStepSamplesEveryLiveVM: every step carries one sample per VM slot,
// stamped with the step's time, for every VM that lives on the server —
// before an export, after it, and for a VM admitted mid-run. A departed
// husk's slot is the zero Sample, even though the reused scratch slot held
// the VM's sample the step before.
func TestStepSamplesEveryLiveVM(t *testing.T) {
	src := MustNewServer(DefaultConfig())
	vm, err := src.AddApp("vm", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	atk, err := attack.NewBusLock(attack.Always{}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.AddAttacker("attacker", atk); err != nil {
		t.Fatal(err)
	}
	if _, err := src.AddApp("util", workload.Utility()); err != nil {
		t.Fatal(err)
	}
	dst := MustNewServer(DefaultConfig())
	if _, err := dst.AddApp("resident", workload.Utility()); err != nil {
		t.Fatal(err)
	}
	check := func(s *Server, res StepResult) {
		t.Helper()
		if len(res.Samples) != len(s.VMs()) {
			t.Fatalf("t=%v: %d samples for %d VM slots", res.Time, len(res.Samples), len(s.VMs()))
		}
		for _, v := range s.VMs() {
			smp := res.Samples[v.ID()]
			switch {
			case v.Departed() && smp != (pcm.Sample{}):
				t.Fatalf("t=%v: husk %s has sample %+v", res.Time, v.Name(), smp)
			case !v.Departed() && math.Abs(smp.Time-res.Time) > 1e-9:
				t.Fatalf("t=%v: %s sample stamped %v", res.Time, v.Name(), smp.Time)
			}
		}
	}
	for i := 0; i < 10; i++ {
		check(src, src.Step())
		check(dst, dst.Step())
	}
	st, err := src.ExportVM(vm.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AdmitVM(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		check(src, src.Step())
		check(dst, dst.Step())
	}
}

// ownerList reads an arbiter's registered owners (the unexported owners
// list of a *bus.Bus or *mem.Controller, which Resolve walks every tick).
func ownerList(arbiter any) []int64 {
	v := reflect.ValueOf(arbiter).Elem().FieldByName("owners")
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.Index(i).Int()
	}
	return out
}

// TestExportTakesHuskOffArbiters: after ExportVM the husk is on neither
// the bus's nor the memory controller's owner list nor LiveVMs, so it
// costs them nothing per tick, and no setter on it puts it back.
func TestExportTakesHuskOffArbiters(t *testing.T) {
	s := MustNewServer(memConfig(2))
	vm, err := s.AddApp("vm", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddAttacker("hog", newHog(t)); err != nil {
		t.Fatal(err)
	}
	collectSamples(s, vm.ID(), 10)
	if !slices.Contains(ownerList(s.bus), int64(vm.ID())) || !slices.Contains(ownerList(s.mc), int64(vm.ID())) {
		t.Fatal("a running VM is missing from an arbiter's owner list")
	}
	if _, err := s.ExportVM(vm.ID()); err != nil {
		t.Fatal(err)
	}
	id := vm.ID()
	for _, set := range []func() error{
		func() error { return s.SetExecThrottle(id, 0.5) },
		func() error { return s.SetCachePartition(id, true) },
		func() error { return s.SetVMSocket(id, 1) },
		func() error { return s.SetMemRemoteFraction(id, 0.5) },
		func() error { return s.SetMemBandwidthLimit(id, 0) },
		func() error { return s.SetMemBandwidthLimit(id, 1e9) },
	} {
		if err := set(); err != nil {
			t.Fatalf("setter on a husk: %v", err)
		}
	}
	collectSamples(s, 1, 10)
	for name, arbiter := range map[string]any{"bus": s.bus, "mem": s.mc} {
		if got := ownerList(arbiter); !slices.Equal(got, []int64{1}) {
			t.Errorf("%s owners after export = %v, want [1]", name, got)
		}
	}
	if s.ExecThrottle(id) != 0 || s.CachePartitioned(id) || s.MemBandwidthLimit(id) != 0 || s.VMSocket(id) != 0 {
		t.Error("a setter on a husk changed its state")
	}
	if live := s.LiveVMs(); len(live) != 1 || live[0].ID() != 1 {
		t.Errorf("LiveVMs after export = %v, want the hog alone", live)
	}
}

// TestStepNoAllocsAfterMigrations: a DRAM-on host whose VMs have come and
// gone through export/admit cycles still steps without allocating.
func TestStepNoAllocsAfterMigrations(t *testing.T) {
	cfg := memConfig(2)
	cfg.DisableHistory = true
	a, b := MustNewServer(cfg), MustNewServer(cfg)
	if _, err := a.AddAttacker("hog", newHog(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := a.AddApp("util", workload.Utility()); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddApp("util", workload.MustByAbbrev("KM").Service()); err != nil {
			t.Fatal(err)
		}
	}
	move := func(src, dst *Server, id VMID) {
		st, err := src.ExportVM(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.AdmitVM(st); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		a.Step()
		b.Step()
		move(a, b, a.live[len(a.live)/2].ID())
		move(b, a, b.live[0].ID())
	}
	step := func() {
		a.Step()
		b.Step()
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("Step allocates %.2f objects/tick after migrations, want 0", avg)
	}
}

// TestMigrationDowntimeSkipsTimeline verifies transit downtime: a VM
// admitted d ticks after export resumes its sample timeline at the
// destination's wall clock, with no samples for the transit interval.
func TestMigrationDowntimeSkipsTimeline(t *testing.T) {
	const before, transit, after = 100, 25, 50
	cfg := DefaultConfig()
	src := MustNewServer(cfg)
	vm, err := src.AddApp("vm", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	collectSamples(src, vm.ID(), before)
	st, err := src.ExportVM(vm.ID())
	if err != nil {
		t.Fatal(err)
	}
	dst := MustNewServer(cfg)
	for i := 0; i < before+transit; i++ {
		dst.Step()
	}
	dvm, err := dst.AdmitVM(st)
	if err != nil {
		t.Fatal(err)
	}
	got := collectSamples(dst, dvm.ID(), after)
	if len(got) != after {
		t.Fatalf("got %d post-transit samples, want %d", len(got), after)
	}
	wantFirst := float64(before+transit+1) * cfg.TPCM
	if diff := got[0].Time - wantFirst; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("first post-transit sample at t=%v, want %v", got[0].Time, wantFirst)
	}
}

// TestMigrationAdmitBehindClockRejected: a destination whose clock is
// behind the export tick cannot admit (lockstep violation).
func TestMigrationAdmitBehindClockRejected(t *testing.T) {
	src := MustNewServer(DefaultConfig())
	vm, err := src.AddApp("vm", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	collectSamples(src, vm.ID(), 10)
	st, err := src.ExportVM(vm.ID())
	if err != nil {
		t.Fatal(err)
	}
	dst := MustNewServer(DefaultConfig())
	if _, err := dst.AdmitVM(st); err == nil {
		t.Error("admit on a destination behind the export tick succeeded")
	}
}
