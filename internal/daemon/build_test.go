package daemon

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
	"memdos/internal/pcm"
	"memdos/internal/respond"
	"memdos/internal/stream"
)

// throttleLog is an Actuator that records which sessions it throttled.
type throttleLog struct {
	respond.LogActuator
	mu        sync.Mutex
	throttled []string
}

func (a *throttleLog) Throttle(session string, duty float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.throttled = append(a.throttled, session)
	return nil
}

// Build wires what memdosd serves: a bus-lock stream into an sds:KM
// session reaches the actuator through the engine, the engine's routes
// and metrics are served, a nil actuator means no engine, and Close
// leaves no observer on the hub.
func TestBuildWiring(t *testing.T) {
	params := core.DefaultParams()
	prof, err := experiments.ProfileApp("KM", experiments.ProfileDuration, params)
	if err != nil {
		t.Fatal(err)
	}
	live, err := experiments.Run(experiments.DefaultRunSpec("KM", experiments.BusLock, 2), params, nil)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]pcm.Sample, live.Access.Len())
	for i := range samples {
		samples[i] = pcm.Sample{Time: live.Access.TimeAt(i), AccessNum: live.Access.Values[i], MissNum: live.Miss.Values[i]}
	}
	var body []byte
	for off := 0; off < len(samples); off += 256 {
		if body, err = pcm.AppendBatch(body, "victim", samples[off:min(off+256, len(samples))]); err != nil {
			t.Fatal(err)
		}
	}

	cfg := stream.DefaultConfig()
	cfg.Policy = stream.Block
	act := &throttleLog{}
	sys, err := Build(Config{Hub: cfg, Profiles: map[string]core.Profile{"KM": prof}, Actuator: act})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(sys.Handler)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest/stream?profile=sds:KM", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if err := sys.Hub.Drain(); err != nil {
		t.Fatal(err)
	}
	act.mu.Lock()
	throttled := act.throttled
	act.mu.Unlock()
	if len(throttled) == 0 || throttled[0] != "victim" {
		t.Fatalf("actuator throttled %v, want the victim", throttled)
	}
	if resp, body := doJSON(t, "GET", ts.URL+"/v1/responses", nil); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"victim"`) {
		t.Errorf("responses: %d %s", resp.StatusCode, body)
	}
	if _, body := doJSON(t, "GET", ts.URL+"/metrics", nil); !strings.Contains(string(body), "memdos_respond_throttle_actions_total") {
		t.Error("metrics miss the engine's counters")
	}

	// Closed, the system has detached its engine: closing a session no
	// longer reaches it.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Hub.CloseSession("victim"); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Engine.State("victim"); !ok {
		t.Error("the engine still observes the closed hub")
	}

	bare, err := Build(Config{Hub: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if bare.Engine != nil {
		t.Error("engine built without an actuator")
	}
	bts := httptest.NewServer(bare.Handler)
	defer bts.Close()
	if resp, body := doJSON(t, "GET", bts.URL+"/v1/responses", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("responses without an actuator: %d %s", resp.StatusCode, body)
	}
}

// A Build that fails closes what it started: no shard goroutine of its
// hub outlives the error.
func TestBuildFailureLeaksNothing(t *testing.T) {
	const window = 20
	c := testCascade(t, window)
	if _, err := c.Scorer(window, dnn.ScorerOptions{}); err != nil { // fixes the cascade's window
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if sys, err := Build(Config{Hub: stream.DefaultConfig(), Cascade: c, ScoreStride: window + 1}); err == nil {
		sys.Close()
		t.Fatal("stride longer than the window accepted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before Build, %d after its error:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
