package stream

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"memdos/internal/core"
	"memdos/internal/pcm"
)

// interleavedFrames cuts sessions' streams into frames of 7 to 23
// samples and interleaves them round-robin, the way one connection
// multiplexes many VMs.
func interleavedFrames(ids []string, perSession int) []Frame {
	streams := make([][]pcm.Sample, len(ids))
	for i := range ids {
		streams[i] = sessionSamples(uint64(i+1), perSession)
	}
	var frames []Frame
	for off, size := 0, 7; off < perSession; off, size = off+size, 7+(size+9)%17 {
		end := min(off+size, perSession)
		for i, id := range ids {
			frames = append(frames, Frame{Session: id, Samples: streams[i][off:end]})
		}
	}
	return frames
}

// handoffRun is what a hub made of a stream: each session's decisions
// and the alarm edges its observer heard, plus the hub's counters.
type handoffRun struct {
	decisions map[string][]core.Decision
	edges     map[string][]string
	stats     HubStats
}

// runFrames opens ids on a fresh hub and feeds it frames through ingest.
func runFrames(t *testing.T, cfg Config, ids []string, ingest func(*Hub) error) handoffRun {
	t.Helper()
	h := NewHub(cfg)
	t.Cleanup(func() { h.Close() })
	var recs recorders
	if err := h.RegisterProfile("sdsb", recs.wrap(sdsbFactory(fastParams()))); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var log []string
	h.AddObserver(logObserver{"obs", &mu, &log})
	for _, id := range ids {
		if err := h.Open(id, "sdsb"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingest(h); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	run := handoffRun{decisions: make(map[string][]core.Decision), edges: make(map[string][]string), stats: h.Stats()}
	for i, id := range ids {
		run.decisions[id] = recs.all[i].decisions()
	}
	mu.Lock()
	defer mu.Unlock()
	for _, e := range log {
		var name, id string
		fmt.Sscan(e, &name, &id)
		run.edges[id] = append(run.edges[id], e)
	}
	return run
}

// TestIngestFramesMatchesIngest is the hand-off's differential test: the
// same interleaved frames of six sessions, handed over as one Ingest per
// frame and as one IngestFrames call, must yield the same decisions, the
// same alarm edges and the same hub counters — on one shard and on four,
// with a queue that holds everything and one so small that the call must
// send what it has gathered and wait mid-way.
func TestIngestFramesMatchesIngest(t *testing.T) {
	ids := []string{"vm-a", "vm-b", "vm-c", "vm-d", "vm-e", "vm-f"}
	frames := interleavedFrames(ids, 400)
	for _, shards := range []int{1, 4} {
		for _, queueCap := range []int{4096, 50} {
			t.Run(fmt.Sprintf("shards=%d/cap=%d", shards, queueCap), func(t *testing.T) {
				cfg := Config{Shards: shards, QueueCap: queueCap, Policy: Block}
				one := runFrames(t, cfg, ids, func(h *Hub) error {
					for _, f := range frames {
						if n, err := h.Ingest(f.Session, f.Samples); err != nil || n != len(f.Samples) {
							return fmt.Errorf("Ingest(%s) = %d, %v", f.Session, n, err)
						}
					}
					return nil
				})
				many := runFrames(t, cfg, ids, func(h *Hub) error {
					res := make([]FrameResult, len(frames))
					if err := h.IngestFrames(frames, res); err != nil {
						return err
					}
					for i, r := range res {
						if r.Err != nil || r.Accepted != len(frames[i].Samples) {
							return fmt.Errorf("frame %d: %+v", i, r)
						}
					}
					return nil
				})
				for _, id := range ids {
					if len(one.decisions[id]) == 0 || len(one.edges[id]) == 0 {
						t.Fatalf("%s: nothing to compare (%d decisions, %d edges)", id, len(one.decisions[id]), len(one.edges[id]))
					}
				}
				if !reflect.DeepEqual(one.decisions, many.decisions) {
					t.Error("decisions differ between one-frame and many-frame hand-offs")
				}
				if !reflect.DeepEqual(one.edges, many.edges) {
					t.Errorf("alarm edges differ:\none-frame  %v\nmany-frame %v", one.edges, many.edges)
				}
				if one.stats != many.stats {
					t.Errorf("hub stats differ: one-frame %+v, many-frame %+v", one.stats, many.stats)
				}
			})
		}
	}
}

// withDeadline fails the test if f has not returned within d.
func withDeadline(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still blocked after %v", d)
	}
}

// TestIngestFramesBlockSelfWait: under Block, one call carrying three
// queues' worth of one session must hand over what it has gathered before
// it waits for the queue, or it waits on itself forever.
func TestIngestFramesBlockSelfWait(t *testing.T) {
	const queueCap = 64
	h := newTestHub(t, Config{Shards: 2, QueueCap: queueCap, Policy: Block}, fastParams())
	if err := h.Open("vm-1", "sdsb"); err != nil {
		t.Fatal(err)
	}
	samples := sessionSamples(1, 3*queueCap)
	var frames []Frame
	for off := 0; off < len(samples); off += 16 {
		frames = append(frames, Frame{Session: "vm-1", Samples: samples[off : off+16]})
	}
	res := make([]FrameResult, len(frames))
	var err error
	withDeadline(t, 10*time.Second, func() { err = h.IngestFrames(frames, res) })
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if in, _ := h.Session("vm-1"); in.Ingested != uint64(len(samples)) || in.Pending != 0 {
		t.Fatalf("session after the call: %+v", in)
	}
}

// TestHubBlockOversizeFrameIsRefused: a frame larger than QueueCap, which
// no queue could take, is refused with an error and counted as dropped
// under either policy; under Block it used to wait forever. A frame that
// fills the queue exactly still goes in.
func TestHubBlockOversizeFrameIsRefused(t *testing.T) {
	const queueCap = 4096
	samples := sessionSamples(1, queueCap+1)
	for _, policy := range []Policy{Block, DropNewest} {
		t.Run(policy.String(), func(t *testing.T) {
			h := newTestHub(t, Config{Shards: 1, QueueCap: queueCap, Policy: policy}, fastParams())
			if err := h.Open("vm-1", "sdsb"); err != nil {
				t.Fatal(err)
			}
			var n int
			var err error
			withDeadline(t, 10*time.Second, func() { n, err = h.Ingest("vm-1", samples) })
			if err == nil || n != 0 {
				t.Fatalf("oversize frame: accepted %d, err %v", n, err)
			}
			if n, err = h.Ingest("vm-1", samples[:queueCap]); err != nil || n != queueCap {
				t.Fatalf("full-queue frame: accepted %d, err %v", n, err)
			}
			if err := h.Drain(); err != nil {
				t.Fatal(err)
			}
			if in, _ := h.Session("vm-1"); in.Dropped != queueCap+1 || in.Ingested != queueCap {
				t.Fatalf("session after the frames: %+v", in)
			}
		})
	}
}

// gateDetector blocks every Push until the gate closes, so a test can
// hold a shard busy and fill its work channel.
type gateDetector struct{ gate <-chan struct{} }

func (gateDetector) Name() string { return "gate" }
func (d gateDetector) Push(pcm.Sample) []core.Decision {
	<-d.gate
	return nil
}

// TestIngestFramesDropNewestShedsHandOff: under DropNewest a full shard
// channel sheds the call's whole hand-off to that shard. Every frame's
// result, every session's counters and the hub's must still add up:
// accepted plus dropped is what was sent.
func TestIngestFramesDropNewestShedsHandOff(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	h := NewHub(Config{Shards: 1, QueueCap: 1 << 12, ShardBuffer: 1, Policy: DropNewest})
	t.Cleanup(func() {
		release.Do(func() { close(gate) }) // a failed check must not leave the shard stuck
		h.Close()
	})
	if err := h.RegisterProfile("gate", func() (core.Detector, error) { return gateDetector{gate}, nil }); err != nil {
		t.Fatal(err)
	}
	ids := []string{"vm-a", "vm-b", "vm-c"}
	for _, id := range ids {
		if err := h.Open(id, "gate"); err != nil {
			t.Fatal(err)
		}
	}
	frames := interleavedFrames(ids, 60)
	sent := make(map[string]int)
	accepted := make(map[string]int)
	res := make([]FrameResult, len(frames))
	// The first hand-off occupies the shard (its first Push waits on the
	// gate), the second fills the one-slot channel, the rest are shed.
	for call := 0; call < 4; call++ {
		if err := h.IngestFrames(frames, res); err != nil {
			t.Fatal(err)
		}
		shed := 0
		for i, f := range frames {
			if res[i].Err != nil {
				t.Fatalf("call %d frame %d: %v", call, i, res[i].Err)
			}
			if res[i].Accepted == 0 {
				shed++
			} else if res[i].Accepted != len(f.Samples) {
				t.Fatalf("call %d frame %d: accepted %d of %d", call, i, res[i].Accepted, len(f.Samples))
			}
			sent[f.Session] += len(f.Samples)
			accepted[f.Session] += res[i].Accepted
		}
		if call >= 2 && shed != len(frames) {
			t.Fatalf("call %d: %d of %d frames shed, want the whole hand-off", call, shed, len(frames))
		}
		if call == 0 {
			// Wait until the shard has taken the first hand-off off the
			// channel, so the second one fills it.
			for deadline := time.Now().Add(10 * time.Second); len(h.shards[0].work) != 0; {
				if time.Now().After(deadline) {
					t.Fatal("shard never took the first hand-off")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	release.Do(func() { close(gate) })
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, id := range ids {
		in, _ := h.Session(id)
		if in.Ingested != uint64(accepted[id]) || in.Ingested+in.Dropped != uint64(sent[id]) || in.Dropped == 0 {
			t.Errorf("%s: ingested %d dropped %d, results accepted %d of %d sent", id, in.Ingested, in.Dropped, accepted[id], sent[id])
		}
		total += uint64(sent[id])
	}
	if st := h.Stats(); st.SamplesIngested+st.SamplesDropped != total || st.QueueDepth != 0 {
		t.Errorf("hub: ingested %d + dropped %d != sent %d (depth %d)", st.SamplesIngested, st.SamplesDropped, total, st.QueueDepth)
	}
}

// TestIngestFramesRacingClose: many-frame calls racing Close never send
// on a closed channel, and each either accepts every frame or returns
// ErrClosed.
func TestIngestFramesRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		h := NewHub(Config{Shards: 4, QueueCap: 64, ShardBuffer: 4, Policy: Block})
		if err := h.RegisterProfile("sdsb", sdsbFactory(fastParams())); err != nil {
			t.Fatal(err)
		}
		ids := []string{"vm-a", "vm-b", "vm-c", "vm-d", "vm-e"}
		for _, id := range ids {
			if err := h.Open(id, "sdsb"); err != nil {
				t.Fatal(err)
			}
		}
		frames := interleavedFrames(ids, 200)
		var wg sync.WaitGroup
		for p := 0; p < 3; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := make([]FrameResult, len(frames))
				for {
					err := h.IngestFrames(frames, res)
					if err == ErrClosed {
						return
					}
					if err != nil {
						t.Errorf("IngestFrames: %v", err)
						return
					}
					for i, r := range res {
						if r.Err != nil || r.Accepted != len(frames[i].Samples) {
							t.Errorf("frame %d without ErrClosed: %+v", i, r)
							return
						}
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * time.Millisecond)
		withDeadline(t, 10*time.Second, func() {
			if err := h.Close(); err != nil {
				t.Error(err)
			}
			wg.Wait()
		})
	}
}

// TestIngestFramesAllocsDoNotGrowWithFrames pins IngestFrames' contract:
// the gather into pooled buffers, the per-shard hand-off and the shard's
// segment loop allocate nothing per frame. The bound is one allocation
// per extra frame, as for Ingest, because under the race detector
// sync.Pool sheds some of its Puts.
func TestIngestFramesAllocsDoNotGrowWithFrames(t *testing.T) {
	h := NewHub(Config{Shards: 2, Policy: Block})
	defer h.Close()
	if err := h.RegisterProfile("silent", func() (core.Detector, error) { return silentDetector{}, nil }); err != nil {
		t.Fatal(err)
	}
	ids := []string{"vm-a", "vm-b", "vm-c", "vm-d"}
	for _, id := range ids {
		if err := h.Open(id, "silent"); err != nil {
			t.Fatal(err)
		}
	}
	all := interleavedFrames(ids, 256)
	res := make([]FrameResult, len(all))
	perRun := func(frames []Frame) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := h.IngestFrames(frames, res); err != nil {
				t.Fatal(err)
			}
			if err := h.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := perRun(all[:8]), perRun(all[:64])
	if big-small >= 64-8 {
		t.Errorf("IngestFrames allocates per frame: %.0f allocs at 8 frames, %.0f at 64", small, big)
	}
}

// TestFinishBatchBroadcastsOnlyUnderBlock: nothing waits on a session's
// condition variable under DropNewest, so the shard finishes a segment
// without taking its lock; under Block it takes it to wake the waiters.
func TestFinishBatchBroadcastsOnlyUnderBlock(t *testing.T) {
	for _, policy := range []Policy{DropNewest, Block} {
		gate := make(chan struct{})
		h := NewHub(Config{Shards: 1, Policy: policy})
		t.Cleanup(func() { h.Close() })
		if err := h.RegisterProfile("gate", func() (core.Detector, error) { return gateDetector{gate}, nil }); err != nil {
			t.Fatal(err)
		}
		if err := h.Open("vm-1", "gate"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Ingest("vm-1", sessionSamples(1, 10)); err != nil {
			t.Fatal(err)
		}
		h.mu.RLock()
		s := h.sessions["vm-1"]
		h.mu.RUnlock()
		// With qmu held, a shard that broadcasts cannot finish the segment.
		s.qmu.Lock()
		close(gate)
		drained := make(chan struct{})
		go func() {
			h.Drain()
			close(drained)
		}()
		switch policy {
		case DropNewest:
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				t.Error("drop: the shard waited on the session's queue lock")
			}
		case Block:
			select {
			case <-drained:
				t.Error("block: the shard finished without waking the queue's waiters")
			case <-time.After(50 * time.Millisecond):
			}
		}
		s.qmu.Unlock()
		<-drained
	}
}
