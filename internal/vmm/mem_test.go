package vmm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/mem"
	"memdos/internal/workload"
)

// memConfig returns a server config with the DRAM model on an n-socket
// topology.
func memConfig(sockets int) Config {
	cfg := DefaultConfig()
	mc := mem.DefaultNUMAConfig(sockets)
	cfg.Mem = &mc
	return cfg
}

// memRun builds victim + hog + one utility on the given config, pins
// everyone to socket 0 unless remote is set (then the hog is homed on
// socket 1 streaming 100% remotely into socket 0), runs dur seconds and
// returns mean victim speed plus the victim's mean per-sample AccessNum
// and BWBytes.
func memRun(t *testing.T, cfg Config, hog *attack.Attacker, remote bool, dur float64) (speed, access, bw float64) {
	t.Helper()
	s := MustNewServer(cfg)
	victim, err := s.AddApp("victim", workload.MustByAbbrev("KM"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetVMSocket(victim.ID(), 0); err != nil {
		t.Fatal(err)
	}
	var atk *VM
	if hog != nil {
		atk, err = s.AddAttacker("hog", hog)
		if err != nil {
			t.Fatal(err)
		}
		sock := 0
		if remote {
			sock = 1
		}
		if err := s.SetVMSocket(atk.ID(), sock); err != nil {
			t.Fatal(err)
		}
		if remote {
			if err := s.SetMemRemoteFraction(atk.ID(), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	util, err := s.AddApp("util", workload.MustByAbbrev("PR"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetVMSocket(util.ID(), 0); err != nil {
		t.Fatal(err)
	}

	var speedSum, accSum, bwSum float64
	var steps, samples int
	s.RunUntil(dur, func(res StepResult) {
		speedSum += victim.LastSpeed()
		steps++
		smp := res.Samples[victim.ID()]
		accSum += smp.AccessNum
		bwSum += smp.BWBytes
		samples++
	})
	if steps == 0 || samples == 0 {
		t.Fatal("no steps or samples")
	}
	return speedSum / float64(steps), accSum / float64(samples), bwSum / float64(samples)
}

func newHog(t *testing.T) *attack.Attacker {
	t.Helper()
	a, err := attack.NewMemBandwidth(attack.Always{}, 3.2e10, 0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Without an attacker the memory model leaves the victim essentially at
// full speed, and its samples carry DRAM bandwidth telemetry.
func TestMemModelBenignBaseline(t *testing.T) {
	speed, _, bw := memRun(t, memConfig(1), nil, false, 5)
	if speed < 0.95 {
		t.Fatalf("benign victim speed %v under memory model, want ~1", speed)
	}
	if bw <= 0 {
		t.Fatalf("victim samples carry no BWBytes (%v)", bw)
	}
}

// The DRAM hog slows a co-resident victim substantially while the
// victim's AccessNum — the LLC-centric detector signal — dips far less:
// the evasion asymmetry of Bechtel & Yun (arXiv:2005.10864).
func TestMemBandwidthHogSlowsVictim(t *testing.T) {
	clean, cleanAcc, _ := memRun(t, memConfig(1), nil, false, 10)
	hot, hotAcc, _ := memRun(t, memConfig(1), newHog(t), false, 10)
	slowdown := clean / hot
	if slowdown < 1.5 {
		t.Fatalf("hog slowdown %vx, want >= 1.5x (clean %v, hot %v)", slowdown, clean, hot)
	}
	accDip := 1 - hotAcc/cleanAcc
	speedDip := 1 - hot/clean
	if accDip >= speedDip {
		t.Fatalf("AccessNum dips as much as progress (acc %v vs speed %v): no evasion asymmetry",
			accDip, speedDip)
	}
	if accDip > 0.6*speedDip {
		t.Fatalf("AccessNum dip %v too close to speed dip %v for an LLC-evading attack",
			accDip, speedDip)
	}
}

// A cross-socket hog still hurts, but strictly less than a co-resident
// one (interconnect + remote-efficiency blunting).
func TestMemNUMARemoteAttackWeaker(t *testing.T) {
	cfg := memConfig(2)
	clean, _, _ := memRun(t, cfg, nil, false, 10)
	local, _, _ := memRun(t, cfg, newHog(t), false, 10)
	remote, _, _ := memRun(t, cfg, newHog(t), true, 10)
	if local >= clean*0.95 {
		t.Fatalf("local hog had no effect: %v vs clean %v", local, clean)
	}
	if remote <= local {
		t.Fatalf("remote hog (victim speed %v) stronger than local (%v)", remote, local)
	}
	if remote >= clean*0.98 {
		t.Fatalf("remote hog had no effect at all: %v vs clean %v", remote, clean)
	}
}

// A MemGuard budget on the hog restores most of the victim's speed, and
// clearing it restores the attack — the rung is reversible.
func TestMemBandwidthLimitRecoversVictim(t *testing.T) {
	cfg := memConfig(1)
	s := MustNewServer(cfg)
	victim, err := s.AddApp("victim", workload.MustByAbbrev("KM"))
	if err != nil {
		t.Fatal(err)
	}
	hogVM, err := s.AddAttacker("hog", newHog(t))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.SetVMSocket(victim.ID(), 0)
	_ = s.SetVMSocket(hogVM.ID(), 0)

	meanSpeed := func(until float64) float64 {
		var sum float64
		var n int
		s.RunUntil(until, func(StepResult) {
			sum += victim.LastSpeed()
			n++
		})
		return sum / float64(n)
	}
	attacked := meanSpeed(10)
	if err := s.SetMemBandwidthLimit(hogVM.ID(), 2e9); err != nil {
		t.Fatal(err)
	}
	if got := s.MemBandwidthLimit(hogVM.ID()); got != 2e9 {
		t.Fatalf("MemBandwidthLimit = %v", got)
	}
	mitigated := meanSpeed(20)
	if mitigated < attacked*1.3 {
		t.Fatalf("budget recovered too little: attacked %v -> mitigated %v", attacked, mitigated)
	}
	if err := s.SetMemBandwidthLimit(hogVM.ID(), 0); err != nil {
		t.Fatal(err)
	}
	reattacked := meanSpeed(30)
	if reattacked > mitigated*0.9 {
		t.Fatalf("clearing the budget did not restore the attack: %v vs mitigated %v",
			reattacked, mitigated)
	}
	st, err := s.MemStats(hogVM.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered <= 0 || st.AvgLatency() <= 0 || st.DeliveryRatio() >= 1 {
		t.Fatalf("hog mem stats implausible: %+v", st)
	}
}

// Memory-model operations on a legacy server fail loudly instead of
// silently no-oping.
func TestMemOpsWithoutModel(t *testing.T) {
	s := newServer(t)
	vm, err := s.AddApp("victim", workload.MustByAbbrev("KM"))
	if err != nil {
		t.Fatal(err)
	}
	if s.HasMem() {
		t.Fatal("legacy server claims a memory model")
	}
	if err := s.SetVMSocket(vm.ID(), 0); err == nil {
		t.Error("SetVMSocket succeeded without memory model")
	}
	if err := s.SetMemRemoteFraction(vm.ID(), 0.5); err == nil {
		t.Error("SetMemRemoteFraction succeeded without memory model")
	}
	if err := s.SetMemBandwidthLimit(vm.ID(), 1e9); err == nil {
		t.Error("SetMemBandwidthLimit succeeded without memory model")
	}
	if _, err := s.MemStats(vm.ID()); err == nil {
		t.Error("MemStats succeeded without memory model")
	}
	if s.VMSocket(vm.ID()) != 0 || s.MemBandwidthLimit(vm.ID()) != 0 {
		t.Error("legacy reads not neutral")
	}
	// Out-of-range VM ids fail too, with a model present.
	ms := MustNewServer(memConfig(1))
	if err := ms.SetMemBandwidthLimit(99, 1e9); err == nil {
		t.Error("unknown VM accepted")
	}
}

// memFingerprint runs a 2-socket server with hog + victims and returns
// the exact bytes of every completed sample.
func memFingerprint(t *testing.T, seed uint64) []byte {
	t.Helper()
	cfg := memConfig(2)
	cfg.Seed = seed
	s := MustNewServer(cfg)
	if _, err := s.AddApp("victim", workload.MustByAbbrev("KM")); err != nil {
		t.Fatal(err)
	}
	hogVM, err := s.AddAttacker("hog", newHog(t))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.SetMemRemoteFraction(hogVM.ID(), 0.3)
	if _, err := s.AddApp("util", workload.MustByAbbrev("PR")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.RunUntil(5, func(res StepResult) {
		for _, smp := range res.Samples {
			_ = binary.Write(&buf, binary.LittleEndian, smp)
		}
	})
	return buf.Bytes()
}

// TestMemServerByteIdentical pins run-to-run determinism of the full
// memory-model server, including the BWBytes/AvgLatency sample fields.
func TestMemServerByteIdentical(t *testing.T) {
	a := memFingerprint(t, 7)
	b := memFingerprint(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("memory-model server not reproducible run to run")
	}
	if len(a) == 0 {
		t.Fatal("no samples recorded")
	}
	if bytes.Equal(a, memFingerprint(t, 8)) {
		t.Fatal("seed has no effect")
	}
}

// A migrated VM leaves its bandwidth budget and NUMA overrides behind.
func TestExportClearsMemState(t *testing.T) {
	s := MustNewServer(memConfig(2))
	vm, err := s.AddApp("victim", workload.MustByAbbrev("KM"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetMemBandwidthLimit(vm.ID(), 1e9); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMemRemoteFraction(vm.ID(), 0.7); err != nil {
		t.Fatal(err)
	}
	st, err := s.ExportVM(vm.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MemBandwidthLimit(vm.ID()); got != 0 {
		t.Fatalf("husk keeps bandwidth budget %v", got)
	}
	dst := MustNewServer(memConfig(2))
	adm, err := dst.AdmitVM(st)
	if err != nil {
		t.Fatal(err)
	}
	if dst.MemBandwidthLimit(adm.ID()) != 0 {
		t.Fatal("admitted VM inherited a bandwidth budget")
	}
	if dst.VMSocket(adm.ID()) != int(adm.ID())%2 {
		t.Fatalf("admitted VM socket %d, want default placement", dst.VMSocket(adm.ID()))
	}
}

// The nil-Mem server must remain bit-for-bit the pre-memory-model server:
// DefaultConfig fingerprints must not change shape (no BW fields, same
// samples). This is the back-compat contract for every existing study.
func TestLegacyServerSamplesHaveNoDRAMFields(t *testing.T) {
	s := newServer(t)
	if _, err := s.AddApp("victim", workload.MustByAbbrev("KM")); err != nil {
		t.Fatal(err)
	}
	var seen int
	s.RunUntil(2, func(res StepResult) {
		for _, smp := range res.Samples {
			seen++
			if smp.BWBytes != 0 || smp.AvgLatency != 0 {
				t.Fatalf("legacy sample carries DRAM fields: %+v", smp)
			}
		}
	})
	if seen == 0 {
		t.Fatal("no samples")
	}
}
