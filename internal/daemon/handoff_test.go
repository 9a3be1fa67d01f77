package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"memdos/internal/core"
	"memdos/internal/pcm"
	"memdos/internal/stream"
)

// pipeStream starts a streaming request on srv whose body is the read end
// of a pipe, and returns the write end plus a channel that yields the
// handler's response once it has returned.
func pipeStream(srv *Server, query string) (*io.PipeWriter, <-chan *httptest.ResponseRecorder) {
	pr, pw := io.Pipe()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/ingest/stream"+query, pr))
		pr.Close()
		done <- w
	}()
	return pw, done
}

// waitIngested polls until the hub has accepted n samples.
func waitIngested(t *testing.T, hub *stream.Hub, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); hub.Stats().SamplesIngested < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("hub ingested %d of %d samples", hub.Stats().SamplesIngested, n)
		}
	}
}

// TestStreamStalledProducerIsApplied: a producer that sends one frame and
// then stalls without closing its body still has that frame applied —
// the handler hands over what it holds before it reads again, not when
// more frames or the end of the body arrive.
func TestStreamStalledProducerIsApplied(t *testing.T) {
	_, hub := newTestDaemon(t)
	srv := New(hub, nil)
	pw, done := pipeStream(srv, "?profile=sdsb:test")
	samples := attackSamples(60, 0)
	frame, err := pcm.AppendBatch(nil, "vm-stall", samples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, hub, uint64(len(samples)))
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	in, ok := hub.Session("vm-stall")
	if !ok || in.Ingested != uint64(len(samples)) || in.Pending != 0 || in.Decisions == 0 {
		t.Fatalf("stalled producer's frame not processed: %+v", in)
	}
	pw.Close()
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
}

// TestStreamHoldsAtMostOneReadBuffer: a producer that streams without a
// pause never makes the handler hold more decoded samples than the frames
// one read buffer can carry. The writes are cut across frame boundaries,
// so the read buffer always ends inside a frame and is never empty when
// the handler reads again.
func TestStreamHoldsAtMostOneReadBuffer(t *testing.T) {
	_, hub := newTestDaemon(t)
	srv := New(hub, nil)
	pw, done := pipeStream(srv, "?profile=raw")
	const perFrame = 10
	samples := attackSamples(perFrame, 0)
	const frames = 8 * pcm.FrameReadBuffer / 100 // about eight read buffers
	var (
		wire     []byte
		ends     []int // where each frame ends on the wire
		smallest = pcm.FrameReadBuffer
		err      error
	)
	for f := 0; f < frames; f++ {
		for i := range samples {
			samples[i].Time = float64(f*perFrame+i+1) * 0.01
		}
		start := len(wire)
		if wire, err = pcm.AppendBatch(wire, "vm-1", samples); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(wire))
		smallest = min(smallest, len(wire)-start)
	}
	// Whole frames one read buffer can hold, plus the one a read may
	// complete.
	bound := (pcm.FrameReadBuffer/smallest + 1) * perFrame
	for off := 0; off < len(wire); {
		end := min(off+1000+off%37, len(wire))
		if _, err := pw.Write(wire[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
		// Every read the handler made so far has returned: all it has
		// not handed over lies in its read buffer.
		whole := sort.SearchInts(ends, off+1)
		held := whole*perFrame - int(hub.Stats().SamplesIngested)
		if held > bound {
			t.Fatalf("after %d bytes the handler holds %d decoded samples, bound %d", off, held, bound)
		}
	}
	pw.Close()
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := hub.Stats().SamplesIngested; got != uint64(frames*perFrame) {
		t.Fatalf("ingested %d of %d samples", got, frames*perFrame)
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

// TestStreamShedHandOffsAddUp: under DropNewest, with the shard stuck
// and its one-slot channel full, whole hand-offs are shed. The response
// and every session must still account for each sample sent, as accepted
// or as dropped.
func TestStreamShedHandOffsAddUp(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	hub := stream.NewHub(stream.Config{Shards: 1, QueueCap: 1 << 20, ShardBuffer: 1, Policy: stream.DropNewest})
	t.Cleanup(func() {
		release.Do(func() { close(gate) })
		hub.Close()
	})
	if err := hub.RegisterProfile("gate", func() (core.Detector, error) { return gateDetector{gate}, nil }); err != nil {
		t.Fatal(err)
	}
	// Four read buffers of frames, three sessions interleaved: at least
	// four hand-offs for a shard that can take one and queue one.
	ids := []string{"vm-a", "vm-b", "vm-c"}
	sent := make(map[string]int)
	var body []byte
	for f := 0; len(body) < 4*pcm.FrameReadBuffer; f++ {
		id := ids[f%len(ids)]
		samples := attackSamples(20, float64(f))
		var err error
		if body, err = pcm.AppendBatch(body, id, samples); err != nil {
			t.Fatal(err)
		}
		sent[id] += len(samples)
	}
	w := httptest.NewRecorder()
	New(hub, nil).ServeHTTP(w, httptest.NewRequest("POST", "/v1/ingest/stream?profile=gate", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp stream.IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range sent {
		total += n
	}
	if resp.Accepted+resp.Dropped != total || resp.Dropped == 0 || len(resp.Errors) != 0 {
		t.Fatalf("response %+v for %d samples sent, want some shed and all accounted for", resp, total)
	}
	release.Do(func() { close(gate) })
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, id := range ids {
		in, _ := hub.Session(id)
		if in.Ingested+in.Dropped != uint64(sent[id]) {
			t.Errorf("%s: ingested %d + dropped %d != sent %d", id, in.Ingested, in.Dropped, sent[id])
		}
		accepted += int(in.Ingested)
	}
	if accepted != resp.Accepted {
		t.Errorf("sessions ingested %d, response says %d accepted", accepted, resp.Accepted)
	}
}
