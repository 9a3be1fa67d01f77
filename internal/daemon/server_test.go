package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memdos/internal/core"
	"memdos/internal/pcm"
	"memdos/internal/respond"
	"memdos/internal/stream"
)

// newTestDaemon assembles the daemon exactly as run() does — hub,
// profiles, HTTP handler — behind an httptest server. The raw detector
// plus a synthetic SDS/B profile keep it fast (no workload profiling).
func newTestDaemon(t *testing.T) (*httptest.Server, *stream.Hub) {
	t.Helper()
	cfg := stream.DefaultConfig()
	cfg.Policy = stream.Block
	hub := stream.NewHub(cfg)
	if err := hub.RegisterProfile("raw", func() (core.Detector, error) {
		return core.NewRawThreshold(0.5)
	}); err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	params.W, params.DW, params.HC = 20, 10, 2
	prof := core.Profile{AccessMean: 100, AccessStd: 5, MissMean: 10, MissStd: 2}
	if err := hub.RegisterProfile("sdsb:test", func() (core.Detector, error) {
		return core.NewSDSB(prof, params)
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(hub, nil))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { hub.Close() })
	return ts, hub
}

// newRespondDaemon is newTestDaemon with the mitigation engine attached,
// the way run() wires it under -respond.
func newRespondDaemon(t *testing.T) (*httptest.Server, *stream.Hub, *respond.Engine) {
	t.Helper()
	cfg := stream.DefaultConfig()
	cfg.Policy = stream.Block
	hub := stream.NewHub(cfg)
	if err := hub.RegisterProfile("raw", func() (core.Detector, error) {
		return core.NewRawThreshold(0.5)
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := respond.New(respond.DefaultConfig(), respond.NewLogActuator())
	if err != nil {
		t.Fatal(err)
	}
	detach := respond.Attach(hub, eng, 64)
	ts := httptest.NewServer(New(hub, eng))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { hub.Close() })
	t.Cleanup(detach)
	return ts, hub, eng
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// ingestBody builds a one-session ingest request whose AccessNum
// collapses halfway through (the bus-locking footprint).
func ingestBody(session, profile string, n int, t0 float64) stream.IngestRequest {
	samples := make([]pcm.Sample, n)
	for i := range samples {
		access := 100 + 3*math.Sin(float64(i)/7)
		if i >= n/2 {
			access *= 0.25
		}
		samples[i] = pcm.Sample{Time: t0 + 0.01*float64(i+1), AccessNum: access, MissNum: 10}
	}
	return stream.IngestRequest{Batches: []stream.IngestBatch{{Session: session, Profile: profile, Samples: samples}}}
}

func TestEndToEnd(t *testing.T) {
	ts, hub := newTestDaemon(t)

	// Liveness.
	resp, body := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// Explicit session creation.
	resp, body = doJSON(t, "POST", ts.URL+"/v1/sessions",
		OpenSessionRequest{Session: "vm-alpha", Profile: "sdsb:test"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %s", resp.StatusCode, body)
	}
	// Duplicate -> conflict.
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/sessions",
		OpenSessionRequest{Session: "vm-alpha", Profile: "sdsb:test"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate session: %d", resp.StatusCode)
	}

	// Batched ingest: explicit session + auto-created one in one call.
	req := ingestBody("vm-alpha", "", 600, 0)
	req.Batches = append(req.Batches, ingestBody("vm-beta", "raw", 100, 0).Batches...)
	resp, body = doJSON(t, "POST", ts.URL+"/v1/ingest", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	var ir stream.IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 700 || len(ir.Errors) != 0 {
		t.Fatalf("ingest response = %+v", ir)
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}

	// Session list.
	resp, body = doJSON(t, "GET", ts.URL+"/v1/sessions", nil)
	var list struct {
		Sessions []stream.SessionInfo `json:"sessions"`
		Profiles []string             `json:"profiles"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(list.Sessions) != 2 || len(list.Profiles) != 2 {
		t.Fatalf("sessions list: %d %+v", resp.StatusCode, list)
	}

	// Per-session state: the attacked half must have raised an incident.
	resp, body = doJSON(t, "GET", ts.URL+"/v1/sessions/vm-alpha", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: %d %s", resp.StatusCode, body)
	}
	var in stream.SessionInfo
	if err := json.Unmarshal(body, &in); err != nil {
		t.Fatal(err)
	}
	if in.Ingested != 600 || in.Decisions == 0 {
		t.Fatalf("session info = %+v", in)
	}
	if !in.AlarmActive || len(in.Incidents) == 0 {
		t.Fatalf("attack not reflected: %+v", in)
	}
	if in.State["access_ewma"] == 0 {
		t.Fatalf("no detector state: %+v", in.State)
	}

	// Unknown session -> 404.
	if resp, _ = doJSON(t, "GET", ts.URL+"/v1/sessions/ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost session: %d", resp.StatusCode)
	}

	// Metrics exposition reflects the ingest.
	resp, body = doJSON(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"memdos_stream_samples_ingested_total 700",
		"memdos_stream_sessions 2",
		"memdos_stream_alarms_raised_total",
		"memdos_stream_queue_depth{shard=",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Close one session over HTTP.
	if resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/sessions/vm-beta", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete session: %d", resp.StatusCode)
	}
	if _, ok := hub.Session("vm-beta"); ok {
		t.Fatal("vm-beta still open")
	}
}

func TestIngestRejectsMalformed(t *testing.T) {
	ts, _ := newTestDaemon(t)
	for _, body := range []string{
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":-3,"miss":1}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1e999,"miss":1}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1}]}]}`,
		`{"batches":[]}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Unknown session without a profile: request-level OK is impossible
	// (every batch failed), so 400 with a per-batch error.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/ingest", ingestBody("ghost", "", 10, 0))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "ghost") {
		t.Errorf("ghost ingest: %d %s", resp.StatusCode, body)
	}
}

// TestJSONIngestBlockOversizeFrame: under -policy block a /v1/ingest
// batch of one sample more than the session's queue holds is answered
// with a per-batch error, not held until shutdown.
func TestJSONIngestBlockOversizeFrame(t *testing.T) {
	ts, hub := newTestDaemon(t) // Block, QueueCap 4096
	body, err := json.Marshal(ingestBody("vm-1", "raw", 4097, 0))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("oversize batch: %v", err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "exceeds the queue capacity") {
		t.Errorf("oversize batch: %d %s", resp.StatusCode, out)
	}
	if st := hub.Stats(); st.SamplesDropped != 4097 || st.SamplesIngested != 0 {
		t.Errorf("hub after the oversize batch: %+v", st)
	}
}

// TestIngestClosedHub: a JSON producer still sending when the hub shuts
// down gets 503, as a streaming one does (TestStreamIngestClosedHub),
// whether its batch names an open session or asks for a new one.
func TestIngestClosedHub(t *testing.T) {
	ts, hub := newTestDaemon(t)
	if err := hub.Open("vm-1", "raw"); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	for _, req := range []stream.IngestRequest{
		ingestBody("vm-1", "", 10, 0),
		ingestBody("vm-2", "raw", 10, 0),
	} {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/ingest", req)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("ingest of %s to a closed hub: %d %s", req.Batches[0].Session, resp.StatusCode, body)
		}
	}
}

// TestIngestErrorCap: a JSON request stops at its maxStreamErrors-th
// failing batch, as a stream does (TestStreamIngestErrorCap); the batches
// before it are applied and the ones after it are not.
func TestIngestErrorCap(t *testing.T) {
	ts, hub := newTestDaemon(t)
	req := ingestBody("vm-1", "raw", 10, 0)
	for i := 0; i < maxStreamErrors+8; i++ {
		req.Batches = append(req.Batches, ingestBody(fmt.Sprintf("g%d", i), "nope", 2, 0).Batches...)
	}
	req.Batches = append(req.Batches, ingestBody("vm-2", "raw", 10, 0).Batches...)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/ingest", req)
	var ir stream.IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("%d %s: %v", resp.StatusCode, body, err)
	}
	if resp.StatusCode != http.StatusOK || ir.Accepted != 10 || len(ir.Errors) != maxStreamErrors {
		t.Fatalf("error-capped ingest: %d %+v, want 200, 10 accepted and %d errors", resp.StatusCode, ir, maxStreamErrors)
	}
	if _, ok := hub.Session("vm-2"); ok {
		t.Error("the batch after the last error was applied")
	}
}

// TestIngestProfileConflict: a batch whose session is open under another
// profile is refused with an error naming the open profile, and none of its samples reach the
// session's detector.
func TestIngestProfileConflict(t *testing.T) {
	ts, hub := newTestDaemon(t)
	if err := hub.Open("vm-1", "sdsb:test"); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, "POST", ts.URL+"/v1/ingest", ingestBody("vm-1", "raw", 10, 0))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "sdsb:test") {
		t.Errorf("conflicting profile: %d %s", resp.StatusCode, body)
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	if in, _ := hub.Session("vm-1"); in.Ingested != 0 || in.Profile != "sdsb:test" {
		t.Errorf("session after the refused batch: %+v", in)
	}
}

// TestGracefulShutdown covers the daemon's drain path: queued samples
// are fully processed by hub.Close even when ingestion stops abruptly.
func TestGracefulShutdown(t *testing.T) {
	ts, hub := newTestDaemon(t)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/ingest", ingestBody("vm-1", "sdsb:test", 2000, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	ts.Close() // listener gone; queued work must still drain
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	in, ok := hub.Session("vm-1")
	if !ok {
		t.Fatal("session vanished")
	}
	if in.Pending != 0 {
		t.Fatalf("pending after Close = %d", in.Pending)
	}
	// W=20, DW=10: 2000 samples -> (2000-20)/10+1 = 199 decisions.
	if in.Decisions != 199 {
		t.Fatalf("decisions after drain = %d, want 199", in.Decisions)
	}
	if !in.AlarmActive || len(in.Incidents) == 0 {
		t.Fatalf("final incident log empty: %+v", in)
	}
}

// TestResponsesDisabled: without -respond the mitigation endpoints are
// absent-by-policy, not routing 404s with empty bodies.
func TestResponsesDisabled(t *testing.T) {
	ts, _ := newTestDaemon(t)
	resp, body := doJSON(t, "GET", ts.URL+"/v1/responses", nil)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "-respond") {
		t.Errorf("responses list while disabled: %d %s", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/responses/vm-1/override",
		map[string]string{"mode": "pause"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("override while disabled: %d", resp.StatusCode)
	}
}

// TestResponsesEndpoints drives the full operator surface: an ingest that
// raises an alarm mitigates the session, GET /v1/responses exposes it,
// and overrides pause/force/resume it.
func TestResponsesEndpoints(t *testing.T) {
	ts, hub, eng := newRespondDaemon(t)

	// The raw detector alarms on the AccessNum collapse halfway through.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/ingest", ingestBody("vm-1", "raw", 100, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	// The engine observes the raise on the shard goroutine: poll until
	// its level shows it.
	waitForLevel := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, ok := eng.State("vm-1"); ok && st.Level == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		st, _ := eng.State("vm-1")
		t.Fatalf("session never reached level %d: %+v", want, st)
	}
	waitForLevel(1)

	resp, body = doJSON(t, "GET", ts.URL+"/v1/responses", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("responses: %d %s", resp.StatusCode, body)
	}
	var list struct {
		Ladder   []string               `json:"ladder"`
		Sessions []respond.SessionState `json:"sessions"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Ladder) == 0 || len(list.Sessions) != 1 {
		t.Fatalf("responses list = %+v", list)
	}
	if s := list.Sessions[0]; s.Session != "vm-1" || s.Level != 1 || s.LevelName != "throttle(0.25)" {
		t.Fatalf("mitigated session = %+v", s)
	}

	// Operator overrides.
	resp, body = doJSON(t, "POST", ts.URL+"/v1/responses/vm-1/override",
		map[string]string{"mode": "pause"})
	var st respond.SessionState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !st.Paused || st.Level != 0 {
		t.Fatalf("pause: %d %+v", resp.StatusCode, st)
	}
	lvl := 2
	resp, body = doJSON(t, "POST", ts.URL+"/v1/responses/vm-1/override",
		map[string]any{"mode": "force", "level": lvl})
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.Forced != 2 || st.Level != 2 {
		t.Fatalf("force: %d %+v", resp.StatusCode, st)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/responses/vm-1/override",
		map[string]string{"mode": "resume"})
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.Paused || st.Forced != respond.ForceNone {
		t.Fatalf("resume: %d %+v", resp.StatusCode, st)
	}

	// Bad overrides.
	for _, bad := range []any{
		map[string]string{"mode": "explode"},
		map[string]string{"mode": "force"}, // force without level
		map[string]any{"mode": "force", "level": 99},
	} {
		if resp, _ = doJSON(t, "POST", ts.URL+"/v1/responses/vm-1/override", bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("override %v: %d, want 400", bad, resp.StatusCode)
		}
	}

	// Closing the detection session drops the response state with it.
	if resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/sessions/vm-1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete session: %d", resp.StatusCode)
	}
	if _, ok := eng.State("vm-1"); ok {
		t.Error("engine still tracks the closed session")
	}

	// Engine counters are on /metrics.
	_, body = doJSON(t, "GET", ts.URL+"/metrics", nil)
	for _, want := range []string{
		"memdos_respond_events_total",
		"memdos_respond_throttle_actions_total",
		"memdos_respond_overrides_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestOverrideUnknownSession: the override route answers 404 for an id
// the hub has no session for, and leaves no engine record behind that no
// close would ever end.
func TestOverrideUnknownSession(t *testing.T) {
	ts, _, eng := newRespondDaemon(t)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/responses/ghost/override",
		map[string]string{"mode": "pause"})
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "ghost") {
		t.Errorf("override of an unknown session: %d %s", resp.StatusCode, body)
	}
	if _, ok := eng.State("ghost"); ok {
		t.Error("engine keeps a record for a session the hub never had")
	}
}

// gateDet alarms whenever MissNum exceeds 50. With entered set, its
// first Push closes entered and then waits until gate closes.
type gateDet struct {
	entered chan struct{}
	gate    chan struct{}
}

func (*gateDet) Name() string { return "gate" }

func (d *gateDet) Push(s pcm.Sample) []core.Decision {
	if d.entered != nil {
		close(d.entered)
		d.entered = nil
		<-d.gate
	}
	return []core.Decision{{Time: s.Time, Alarm: s.MissNum > 50}}
}

// TestDeleteWithRaiseQueued: DELETE /v1/sessions/{id} while a batch that
// raises the session's alarm is still queued behind a blocked detector.
// The batch still runs through the detector afterwards, but the engine
// must not hear of it: once it has run, the engine holds no record of the
// closed session.
func TestDeleteWithRaiseQueued(t *testing.T) {
	hub := stream.NewHub(stream.Config{Shards: 1, QueueCap: 1024, ShardBuffer: 8, Policy: stream.Block})
	t.Cleanup(func() { hub.Close() })
	entered, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before hub.Close, which waits for the shard
	if err := hub.RegisterProfile("gate", func() (core.Detector, error) {
		return &gateDet{entered: entered, gate: gate}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterProfile("flip", func() (core.Detector, error) { return &gateDet{}, nil }); err != nil {
		t.Fatal(err)
	}
	eng, err := respond.New(respond.DefaultConfig(), respond.NewLogActuator())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(respond.Attach(hub, eng, 64))
	ts := httptest.NewServer(New(hub, eng))
	t.Cleanup(ts.Close)

	ingest := func(id string, at, miss float64) {
		t.Helper()
		if _, err := hub.Ingest(id, []pcm.Sample{{Time: at, AccessNum: 100, MissNum: miss}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Open("vm-0", "gate"); err != nil {
		t.Fatal(err)
	}
	if err := hub.Open("vm-1", "flip"); err != nil {
		t.Fatal(err)
	}
	// vm-0's first sample holds the hub's one shard; vm-1's raise queues
	// behind it.
	ingest("vm-0", 1, 10)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the gate detector never ran")
	}
	ingest("vm-1", 1, 100)
	if resp, body := doJSON(t, "DELETE", ts.URL+"/v1/sessions/vm-1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete session: %d %s", resp.StatusCode, body)
	}
	// vm-0 raises after vm-1's queued batch on the same shard, so once the
	// engine knows vm-0 it has heard everything vm-1's batch could send.
	ingest("vm-0", 2, 100)
	release()
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := eng.State("vm-0"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("vm-0's raise never reached the engine")
		}
	}
	if st, ok := eng.State("vm-1"); ok {
		t.Errorf("engine holds a record for the closed session: %+v", st)
	}
}

// Concurrent first contacts with different profiles open the session once,
// and every caller whose profile lost is refused: none may feed its samples
// to the winner's detector.
func TestEnsureSessionRefusesLosingProfile(t *testing.T) {
	hub := stream.NewHub(stream.DefaultConfig())
	t.Cleanup(func() { hub.Close() })
	profiles := [2]string{"a", "b"}
	for _, name := range profiles {
		if err := hub.RegisterProfile(name, func() (core.Detector, error) {
			return core.NewRawThreshold(0.5)
		}); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 16
	for round := range 200 {
		id := fmt.Sprintf("s%d", round)
		errs := make([]error, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = hub.Ensure(id, profiles[i%2])
			}()
		}
		close(start)
		wg.Wait()
		in, ok := hub.Session(id)
		if !ok {
			t.Fatalf("round %d: no session opened", round)
		}
		for i, err := range errs {
			if won := profiles[i%2] == in.Profile; won != (err == nil) {
				t.Fatalf("round %d: session opened as %q, caller with %q got %v",
					round, in.Profile, profiles[i%2], err)
			}
		}
	}
}
