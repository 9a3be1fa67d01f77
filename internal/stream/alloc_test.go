package stream

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"

	"memdos/internal/core"
	"memdos/internal/pcm"
)

func ingestBodyJSON(t testing.TB, n int) []byte {
	t.Helper()
	samples := make([]pcm.Sample, n)
	for i := range samples {
		samples[i] = pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: 100, MissNum: 10}
	}
	body, err := json.Marshal(IngestRequest{Batches: []IngestBatch{
		{Session: "vm-1", Samples: samples},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecodeIngestAllocBudget bounds the JSON decode path: pcm.Sample's
// strict UnmarshalJSON costs a bounded handful of allocations per sample
// (its own decoder and pointer-field scratch); anything past this budget
// means the decoder started allocating per-sample state of its own.
func TestDecodeIngestAllocBudget(t *testing.T) {
	body := ingestBodyJSON(t, 128)
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		if _, err := DecodeIngest(rd); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 12.0*128 + 64; allocs > budget {
		t.Errorf("decode costs %.1f allocs/op, budget %.0f", allocs, budget)
	}
}

// silentDetector never decides, so whatever a run allocates is the
// hub's own: the detectors' decision slices are theirs to answer for.
type silentDetector struct{}

func (silentDetector) Name() string                    { return "silent" }
func (silentDetector) Push(pcm.Sample) []core.Decision { return nil }

// steadyDetector decides on every sample, never alarms and reuses one
// decision slice, so whatever a run allocates per decision is the hub's.
type steadyDetector struct {
	t float64
	d [1]core.Decision
}

func (*steadyDetector) Name() string { return "steady" }

func (s *steadyDetector) Push(pcm.Sample) []core.Decision {
	s.t += 0.01
	s.d[0] = core.Decision{Time: s.t}
	return s.d[:]
}

// countObserver counts the Advance calls the hub makes.
type countObserver struct{ advances *atomic.Int64 }

func (countObserver) Observe(string, float64, bool) error { return nil }
func (o countObserver) Advance(string, float64)           { o.advances.Add(1) }
func (countObserver) Forget(string)                       {}

// TestIngestAllocsDoNotGrowWithFrames pins Hub.Ingest's contract — the
// copy into a pooled buffer, the shard hand-off, the per-sample loop and
// each decision's Advance to an attached observer allocate nothing per
// frame — by submitting 8 and then 64 frames per run. Without the race
// detector both runs cost the same (Drain's ack channel); with it
// sync.Pool sheds a quarter of its Puts, about half an allocation a
// frame, so the bound is one allocation per extra frame.
func TestIngestAllocsDoNotGrowWithFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = Block
	cfg.Shards = 1
	h := NewHub(cfg)
	defer h.Close()
	if err := h.RegisterProfile("steady", func() (core.Detector, error) { return new(steadyDetector), nil }); err != nil {
		t.Fatal(err)
	}
	if err := h.Open("vm-1", "steady"); err != nil {
		t.Fatal(err)
	}
	var advances atomic.Int64
	h.AddObserver(countObserver{&advances})
	batch := make([]pcm.Sample, 64)
	for i := range batch {
		batch[i] = pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: 100, MissNum: 10}
	}
	perRun := func(frames int) float64 {
		return testing.AllocsPerRun(100, func() {
			for f := 0; f < frames; f++ {
				if _, err := h.Ingest("vm-1", batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := perRun(8), perRun(64)
	if big-small >= 64-8 {
		t.Errorf("Ingest allocates per frame: %.0f allocs at 8 frames, %.0f at 64", small, big)
	}
	if advances.Load() == 0 {
		t.Error("no decision reached the observer's Advance")
	}
}

// TestSDSSessionAllocBytes bounds what one SDS session's detector costs
// in heap: opening it at Table I and pushing W+dW samples (two decisions)
// must allocate less than one W-sample window of float64s. Both SDS/B
// channels share one moving average of ceil(W/dW) running-sum pairs;
// buffering a window per channel would cost twice the bound on its own.
// The minimum over five rounds discounts allocations other goroutines
// make meanwhile.
func TestSDSSessionAllocBytes(t *testing.T) {
	params := core.DefaultParams()
	samples := make([]pcm.Sample, params.W+params.DW)
	for i := range samples {
		samples[i] = pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: 100 + float64(i%7), MissNum: 10}
	}
	periodic := testProfile()
	periodic.Periodic, periodic.Period = true, 10
	for _, tc := range []struct {
		name    string
		profile core.Profile
	}{{"non-periodic", testProfile()}, {"periodic", periodic}} {
		const runs = 100
		best := uint64(1 << 63)
		for round := 0; round < 5; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < runs; r++ {
				d, err := core.NewSDS(tc.profile, params)
				if err != nil {
					t.Fatal(err)
				}
				decisions := 0
				for _, s := range samples {
					decisions += len(d.Push(s))
				}
				if decisions != 2 {
					t.Fatalf("%s: %d decisions over W+dW samples, want 2", tc.name, decisions)
				}
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		if bound := uint64(8 * params.W); best >= bound {
			t.Errorf("%s SDS session: %d B allocated by open and W+dW pushes, want < %d", tc.name, best, bound)
		}
	}
}
