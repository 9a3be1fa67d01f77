package vmm

import (
	"bytes"
	"encoding/json"
	"testing"

	"memdos/internal/attack"
	"memdos/internal/workload"
)

// TestServerRunsByteIdentical is the regression test for the map-order
// fixes behind memdos-vet's determinism contract: two servers built
// from the same seed must produce byte-for-byte identical sample
// streams and counter series, including under attack, throttling and a
// fractional hypervisor load (the float paths where accumulation order
// once leaked in).
func TestServerRunsByteIdentical(t *testing.T) {
	run := func() []byte {
		cfg := DefaultConfig()
		cfg.Seed = 42
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := workload.ByAbbrev("KM")
		if err != nil {
			t.Fatal(err)
		}
		victim, err := srv.AddApp("victim", spec.Service())
		if err != nil {
			t.Fatal(err)
		}
		atk, err := attack.NewBusLock(attack.Window{Start: 10, End: 60}, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.AddAttacker("attacker", atk); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := srv.AddApp("util", workload.Utility()); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.SetHypervisorLoad(0.031); err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		srv.RunUntil(60, func(step StepResult) {
			if err := enc.Encode(step.Samples[victim.ID()]); err != nil {
				t.Fatal(err)
			}
			if step.Time > 30 {
				// Exercise the dense throttle/partition state mid-run.
				if err := srv.SetExecThrottle(victim.ID(), 0.25); err != nil {
					t.Fatal(err)
				}
			}
		})
		c := srv.Counter(victim.ID())
		if err := enc.Encode(c.AccessSeries()); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(c.MissSeries()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := run()
	for i := 0; i < 2; i++ {
		if next := run(); !bytes.Equal(first, next) {
			t.Fatalf("run %d diverged from run 0: %d vs %d bytes of sample stream", i+1, len(next), len(first))
		}
	}
	if len(first) == 0 {
		t.Fatal("runs produced no samples; the comparison is vacuous")
	}
}
