package vmm

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/workload"
)

// TestStepSamplesPinned pins, bit for bit, every sample and speed Step
// produces on a DRAM-model host that exercises each branch of the step:
// all three attacker kinds, a hypervisor load, every mitigation setter,
// whole-server throttling and a migration round trip through a second
// server. The digest folds the IEEE-754 bits of all five sample fields
// and LastSpeed of every live VM on both servers on every tick, in
// live-list order. A speed-only change to the step, the arbiters or the
// PCM counter must leave want untouched.
//
// The constant is amd64's: other architectures may fuse a multiply-add
// and round differently.
func TestStepSamplesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned on amd64")
	}
	const want = "9600/71c590bf3852af65"

	cfg := memConfig(2)
	a, b := MustNewServer(cfg), MustNewServer(cfg)
	victim, err := a.AddApp("victim", workload.MustByAbbrev("KM").Service())
	if err != nil {
		t.Fatal(err)
	}
	var utils []*VM
	for i := 0; i < 3; i++ {
		u, err := a.AddApp("util", workload.Utility())
		if err != nil {
			t.Fatal(err)
		}
		utils = append(utils, u)
	}
	lock, err := attack.NewBusLock(attack.Window{Start: 1, End: 9}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cleanse, err := attack.NewLLCCleansing(attack.Window{Start: 2, End: 10}, 0.6, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	lockVM, err := a.AddAttacker("lock", lock)
	if err != nil {
		t.Fatal(err)
	}
	cleanseVM, err := a.AddAttacker("cleanse", cleanse)
	if err != nil {
		t.Fatal(err)
	}
	hogVM, err := a.AddAttacker("hog", newHog(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddApp("util", workload.MustByAbbrev("KM").Service()); err != nil {
		t.Fatal(err)
	}
	if err := a.SetHypervisorLoad(0.031); err != nil {
		t.Fatal(err)
	}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	move := func(src, dst *Server, id VMID) VMID {
		t.Helper()
		st, err := src.ExportVM(id)
		must(err)
		vm, err := dst.AdmitVM(st)
		must(err)
		return vm.ID()
	}

	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	rows := 0
	record := func(s *Server, res StepResult) {
		for _, vm := range s.LiveVMs() {
			smp := res.Samples[vm.ID()]
			put(smp.Time)
			put(smp.AccessNum)
			put(smp.MissNum)
			put(smp.BWBytes)
			put(smp.AvgLatency)
			put(vm.LastSpeed())
			rows++
		}
	}

	var moved VMID
	for tick := 0; tick < 1200; tick++ {
		switch tick {
		case 300:
			must(a.ThrottleOthers(victim.ID(), 0.5))
			must(a.SetExecThrottle(lockVM.ID(), 0.3))
			must(a.SetCachePartition(cleanseVM.ID(), true))
			must(a.SetMemBandwidthLimit(hogVM.ID(), 5e9))
			must(a.SetMemRemoteFraction(hogVM.ID(), 0.5))
		case 500:
			moved = move(a, b, utils[1].ID())
		case 800:
			move(b, a, moved)
			must(a.SetCachePartition(cleanseVM.ID(), false))
			must(a.SetExecThrottle(victim.ID(), 0.2))
		}
		record(a, a.Step())
		record(b, b.Step())
	}
	if got := fmt.Sprintf("%d/%016x", rows, h.Sum64()); got != want {
		t.Fatalf("sample digest = %s, want %s", got, want)
	}
}
