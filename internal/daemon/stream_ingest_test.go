package daemon

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"memdos/internal/core"
	"memdos/internal/pcm"
	"memdos/internal/stream"
)

// attackSamples is ingestBody's sample shape without the request
// wrapper: AccessNum collapses halfway through (bus-locking footprint).
func attackSamples(n int, t0 float64) []pcm.Sample {
	samples := make([]pcm.Sample, n)
	for i := range samples {
		access := 100 + 3*math.Sin(float64(i)/7)
		if i >= n/2 {
			access *= 0.25
		}
		samples[i] = pcm.Sample{Time: t0 + 0.01*float64(i+1), AccessNum: access, MissNum: 10}
	}
	return samples
}

// frames encodes batches (session -> consecutive sample chunks) into
// one binary stream body, chunked chunk samples per frame.
func frames(t *testing.T, session string, samples []pcm.Sample, chunk int) []byte {
	t.Helper()
	var body []byte
	for off := 0; off < len(samples); off += chunk {
		end := off + chunk
		if end > len(samples) {
			end = len(samples)
		}
		var err error
		body, err = pcm.AppendBatch(body, session, samples[off:end])
		if err != nil {
			t.Fatal(err)
		}
	}
	return body
}

func postStream(t *testing.T, url string, body []byte, profile string) (*http.Response, []byte) {
	t.Helper()
	target := url + "/v1/ingest/stream"
	if profile != "" {
		target += "?profile=" + profile
	}
	resp, err := http.Post(target, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestStreamIngestEndToEnd(t *testing.T) {
	ts, hub := newTestDaemon(t)

	// Two sessions multiplexed over one streaming request, auto-opened.
	body := frames(t, "vm-alpha", attackSamples(600, 0), 64)
	body = append(body, frames(t, "vm-beta", attackSamples(100, 0), 64)...)
	resp, out := postStream(t, ts.URL, body, "sdsb:test")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream ingest: %d %s", resp.StatusCode, out)
	}
	var ir stream.IngestResponse
	if err := json.Unmarshal(out, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 700 || ir.Dropped != 0 || len(ir.Errors) != 0 {
		t.Fatalf("stream response = %+v", ir)
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	in, ok := hub.Session("vm-alpha")
	if !ok || in.Ingested != 600 || in.Profile != "sdsb:test" {
		t.Fatalf("vm-alpha after stream = %+v", in)
	}
	if !in.AlarmActive || len(in.Incidents) == 0 {
		t.Fatalf("attack not reflected over the stream route: %+v", in)
	}
	if in, ok := hub.Session("vm-beta"); !ok || in.Ingested != 100 {
		t.Fatalf("vm-beta after stream = %+v", in)
	}
}

// recorder wraps a detector and keeps every decision it emits.
type recorder struct {
	core.Detector
	mu  sync.Mutex
	log []core.Decision
}

func (r *recorder) Push(s pcm.Sample) []core.Decision {
	ds := r.Detector.Push(s)
	r.mu.Lock()
	r.log = append(r.log, ds...)
	r.mu.Unlock()
	return ds
}

func (r *recorder) decisions() []core.Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.Decision(nil), r.log...)
}

// TestStreamMatchesJSONDecisions is the acceptance bar of the binary
// route: the same sample stream pushed through /v1/ingest (JSON) and
// /v1/ingest/stream (binary frames) must produce identical detector
// decisions — the codec is lossless end to end, not just in unit tests.
func TestStreamMatchesJSONDecisions(t *testing.T) {
	// Each daemon opens one session per profile, so a profile's recorder
	// is that session's decision log.
	newRecordingDaemon := func() (*httptest.Server, *stream.Hub, map[string]*recorder) {
		cfg := stream.DefaultConfig()
		cfg.Policy = stream.Block
		hub := stream.NewHub(cfg)
		params := core.DefaultParams()
		params.W, params.DW, params.HC = 20, 10, 2
		prof := core.Profile{AccessMean: 100, AccessStd: 5, MissMean: 10, MissStd: 2}
		recs := make(map[string]*recorder)
		for profile, build := range map[string]stream.DetectorFactory{
			"raw":       func() (core.Detector, error) { return core.NewRawThreshold(0.5) },
			"sdsb:test": func() (core.Detector, error) { return core.NewSDSB(prof, params) },
		} {
			rec := &recorder{}
			recs[profile] = rec
			if err := hub.RegisterProfile(profile, func() (core.Detector, error) {
				det, err := build()
				rec.Detector = det
				return rec, err
			}); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(New(hub, nil))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { hub.Close() })
		return ts, hub, recs
	}
	jsonTS, jsonHub, jsonRecs := newRecordingDaemon()
	binTS, binHub, binRecs := newRecordingDaemon()

	// Full-mantissa values exercise the float packing, the attack shape
	// exercises alarm transitions; 37 deliberately does not divide the
	// sample count so the last frame is short.
	samples := attackSamples(600, 0)
	for profile, sess := range map[string]string{"raw": "vm-raw", "sdsb:test": "vm-sds"} {
		req := stream.IngestRequest{Batches: []stream.IngestBatch{
			{Session: sess, Profile: profile, Samples: samples},
		}}
		if resp, body := doJSON(t, "POST", jsonTS.URL+"/v1/ingest", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("json ingest: %d %s", resp.StatusCode, body)
		}
		if resp, body := postStream(t, binTS.URL, frames(t, sess, samples, 37), profile); resp.StatusCode != http.StatusOK {
			t.Fatalf("stream ingest: %d %s", resp.StatusCode, body)
		}
	}
	if err := jsonHub.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := binHub.Drain(); err != nil {
		t.Fatal(err)
	}
	for profile, sess := range map[string]string{"raw": "vm-raw", "sdsb:test": "vm-sds"} {
		want := jsonRecs[profile].decisions()
		got := binRecs[profile].decisions()
		if len(want) == 0 {
			t.Fatalf("%s: no decisions on the JSON route", sess)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d decisions over binary, %d over JSON", sess, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: decision %d differs: binary %+v, json %+v", sess, i, got[i], want[i])
			}
		}
	}
}

func TestStreamIngestRejectsMalformed(t *testing.T) {
	ts, hub := newTestDaemon(t)
	good := frames(t, "vm-1", attackSamples(10, 0), 10)

	cases := map[string][]byte{
		"garbage":          []byte("not a frame at all..."),
		"truncated prefix": good[:2],
		"truncated body":   good[:len(good)-3],
		"version skew": func() []byte {
			b := append([]byte(nil), good...)
			b[pcm.FramePrefixBytes] = 99 // version byte of the first frame
			return b
		}(),
		"oversize frame": {0xff, 0xff, 0xff, 0xff, 0},
	}
	for name, body := range cases {
		resp, out := postStream(t, ts.URL, body, "raw")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, out)
		}
		if !strings.Contains(string(out), "frame") {
			t.Errorf("%s: error %q does not name the frame", name, out)
		}
	}

	// A valid stream for an unknown session without ?profile= fails per
	// batch, not per stream: 400 with the session named.
	resp, out := postStream(t, ts.URL, frames(t, "ghost", attackSamples(10, 0), 10), "")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "ghost") {
		t.Errorf("ghost session stream: %d %s", resp.StatusCode, out)
	}

	// None of the failed streams may have opened the ghost session.
	if _, ok := hub.Session("ghost"); ok {
		t.Error("rejected streams opened the ghost session")
	}
}

// TestStreamIngestClosedHub: a producer still streaming when the hub
// shuts down gets 503, the signal to back off and retry elsewhere.
func TestStreamIngestClosedHub(t *testing.T) {
	ts, hub := newTestDaemon(t)
	if err := hub.Open("vm-1", "raw"); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	resp, out := postStream(t, ts.URL, frames(t, "vm-1", attackSamples(10, 0), 10), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream to closed hub: %d %s", resp.StatusCode, out)
	}
}

// TestStreamIngestErrorCap: a stream whose every frame fails is cut off
// after maxStreamErrors instead of consuming the whole body.
func TestStreamIngestErrorCap(t *testing.T) {
	ts, _ := newTestDaemon(t)
	var body []byte
	for i := 0; i < maxStreamErrors+20; i++ {
		body = append(body, frames(t, "ghost", attackSamples(2, float64(2*i)), 2)...)
	}
	resp, out := postStream(t, ts.URL, body, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("error-capped stream: %d %s", resp.StatusCode, out)
	}
	var ir stream.IngestResponse
	if err := json.Unmarshal(out, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Errors) != maxStreamErrors {
		t.Fatalf("%d errors reported, want the cap %d", len(ir.Errors), maxStreamErrors)
	}
}

// TestStreamIngestProfileConflict: on either ingest route, batches whose
// profile differs from the one their session is open under are refused
// one error per batch, each naming the open profile; none is counted
// dropped, and none reaches the session's detector. Three 10-sample
// batches give the same response on both routes.
func TestStreamIngestProfileConflict(t *testing.T) {
	samples := attackSamples(30, 0)
	for _, tc := range []struct {
		route string
		post  func(url string) (*http.Response, []byte)
	}{
		{"json", func(url string) (*http.Response, []byte) {
			var req stream.IngestRequest
			for off := 0; off < len(samples); off += 10 {
				req.Batches = append(req.Batches, stream.IngestBatch{Session: "vm-1", Profile: "raw", Samples: samples[off : off+10]})
			}
			return doJSON(t, "POST", url+"/v1/ingest", req)
		}},
		{"stream", func(url string) (*http.Response, []byte) {
			return postStream(t, url, frames(t, "vm-1", samples, 10), "raw")
		}},
	} {
		t.Run(tc.route, func(t *testing.T) {
			ts, hub := newTestDaemon(t)
			if err := hub.Open("vm-1", "sdsb:test"); err != nil {
				t.Fatal(err)
			}
			resp, out := tc.post(ts.URL)
			var got stream.IngestResponse
			if err := json.Unmarshal(out, &got); err != nil {
				t.Fatalf("response %d %s: %v", resp.StatusCode, out, err)
			}
			if resp.StatusCode != http.StatusBadRequest || got.Accepted != 0 || got.Dropped != 0 || len(got.Errors) != 3 {
				t.Errorf("conflicting profile: %d %s, want 400 with accepted 0, dropped 0 and three errors", resp.StatusCode, out)
			}
			for _, e := range got.Errors {
				if !strings.Contains(e, "sdsb:test") {
					t.Errorf("error %q does not name the open profile", e)
				}
			}
			if err := hub.Drain(); err != nil {
				t.Fatal(err)
			}
			if in, _ := hub.Session("vm-1"); in.Ingested != 0 || in.Profile != "sdsb:test" {
				t.Errorf("session after the refused batches: %+v", in)
			}
		})
	}
}

// TestGCMetricsExposed: the daemon's registry carries the runtime GC
// counters operators read.
func TestGCMetricsExposed(t *testing.T) {
	ts, _ := newTestDaemon(t)
	resp, body := doJSON(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"memdos_gc_pause_seconds_total",
		"memdos_gc_cycles_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// flatStream builds a single-shard Block-policy daemon with session vm-1
// open on det, and a stream body that repeats one 64-sample frame for it
// n times (the detectors used here do not mind time running in circles).
func flatStream(tb testing.TB, det core.Detector, n int) (*Server, []byte) {
	tb.Helper()
	cfg := stream.DefaultConfig()
	cfg.Policy = stream.Block
	cfg.Shards = 1
	hub := stream.NewHub(cfg)
	tb.Cleanup(func() { hub.Close() })
	if err := hub.RegisterProfile("flat", func() (core.Detector, error) { return det, nil }); err != nil {
		tb.Fatal(err)
	}
	if err := hub.Open("vm-1", "flat"); err != nil {
		tb.Fatal(err)
	}
	samples := make([]pcm.Sample, 64)
	for i := range samples {
		samples[i] = pcm.Sample{Time: 0.01 * float64(i+1), AccessNum: 100, MissNum: 10}
	}
	frame, err := pcm.AppendBatch(nil, "vm-1", samples)
	if err != nil {
		tb.Fatal(err)
	}
	return New(hub, nil), bytes.Repeat(frame, n)
}

// silentDetector never decides, so what a request allocates is the
// serving path's own and not the detector's decision slices.
type silentDetector struct{}

func (silentDetector) Name() string                    { return "silent" }
func (silentDetector) Push(pcm.Sample) []core.Decision { return nil }

// streamAllocs is the allocation count of one streaming request of n
// frames, request and recorder included, with the hub drained.
func streamAllocs(t *testing.T, det core.Detector, n int) float64 {
	srv, body := flatStream(t, det, n)
	rd := bytes.NewReader(body)
	return testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		w := httptest.NewRecorder()
		srv.handleIngestStream(w, httptest.NewRequest("POST", "/v1/ingest/stream", rd))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if err := srv.hub.Drain(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStreamIngestAllocsDoNotGrowWithFrames pins handleIngestStream's
// contract: frame read, decode, session lookup and hub submit reuse the
// connection's buffers, so a request's allocations are per request, not
// per frame. Without the race detector the 8- and 64-frame requests
// cost the same; with it sync.Pool sheds a quarter of the hub's batch
// buffers, about half an allocation a frame, so the bound is one
// allocation per extra frame.
func TestStreamIngestAllocsDoNotGrowWithFrames(t *testing.T) {
	small, big := streamAllocs(t, silentDetector{}, 8), streamAllocs(t, silentDetector{}, 64)
	if big-small >= 64-8 {
		t.Errorf("stream ingest allocates per frame: %.0f allocs at 8 frames, %.0f at 64", small, big)
	}
}

// BenchmarkStreamIngest pushes a 64-frame body through the full
// handler — frame reader, binary decode, session intern, hub submit —
// with the raw-threshold detector, whose one-element decision slice
// per sample is nearly all of the allocs/op it reports.
func BenchmarkStreamIngest(b *testing.B) {
	det, err := core.NewRawThreshold(0.5)
	if err != nil {
		b.Fatal(err)
	}
	srv, body := flatStream(b, det, 64)
	rd := bytes.NewReader(body)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		req := httptest.NewRequest("POST", "/v1/ingest/stream", rd)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
