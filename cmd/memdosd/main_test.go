package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memdos/internal/core"
	"memdos/internal/daemon"
	"memdos/internal/experiments"
	"memdos/internal/pcm"
	"memdos/internal/stream"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-policy", "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if err := run([]string{"-apps", "NOPE", "-policy", "drop"}); err == nil ||
		!strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("bogus app: %v", err)
	}
	// The scoring window is the model's own; there is no flag for it.
	if err := run([]string{"-score-window", "200"}); err == nil ||
		!strings.Contains(err.Error(), "score-window") {
		t.Fatalf("-score-window: %v", err)
	}
	// The mitigation engine runs on each session's decision times; there
	// is no flag for it.
	if err := run([]string{"-respond-tick", "2s"}); err == nil ||
		!strings.Contains(err.Error(), "respond-tick") {
		t.Fatalf("-respond-tick: %v", err)
	}
	// Profiles last experiments.ProfileDuration, the tables' own; there
	// is no flag for it.
	if err := run([]string{"-profile-dur", "120"}); err == nil ||
		!strings.Contains(err.Error(), "profile-dur") {
		t.Fatalf("-profile-dur: %v", err)
	}
}

// decisionLog is an AlarmObserver that rebuilds each session's decision
// timeline from what the hub tells its observers: Observe for the alarm
// edges, Advance for every other decision.
type decisionLog struct {
	mu    sync.Mutex
	alarm map[string]bool
	log   map[string][]core.Decision
}

func (l *decisionLog) Observe(session string, t float64, raised bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.alarm[session] = raised
	l.log[session] = append(l.log[session], core.Decision{Time: t, Alarm: raised})
	return nil
}

func (l *decisionLog) Advance(session string, t float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log[session] = append(l.log[session], core.Decision{Time: t, Alarm: l.alarm[session]})
}

func (l *decisionLog) Forget(string) {}

// The daemon serves the detector the accuracy tables score: the victim
// samples of an experiments.Run, sent over the wire as binary frames
// into an sds:<APP> session of a hub built the way memdosd builds it,
// must yield Run's decisions exactly. BA and TS on seed 2 separate a
// profile of experiments.ProfileDuration from a shorter one.
func TestDaemonMatchesScoredRun(t *testing.T) {
	apps := []string{"KM", "BA", "TS", "FN"}
	profiles, err := profileApps(strings.Join(apps, ","))
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.DefaultConfig()
	cfg.Policy = stream.Block // memdosd -policy block: no sample is shed
	sys, err := daemon.Build(daemon.Config{Hub: cfg, Profiles: profiles})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hub := sys.Hub
	rec := &decisionLog{alarm: map[string]bool{}, log: map[string][]core.Decision{}}
	defer hub.AddObserver(rec)()
	srv := httptest.NewServer(sys.Handler)
	defer srv.Close()

	params := core.DefaultParams()
	for _, app := range apps {
		for _, mode := range []experiments.AttackMode{experiments.BusLock, experiments.Cleansing} {
			live, err := experiments.Run(experiments.DefaultRunSpec(app, mode, 2), params, experiments.SDSFactory)
			if err != nil {
				t.Fatal(err)
			}
			session := fmt.Sprintf("%s-%d", app, mode)
			samples := make([]pcm.Sample, live.Access.Len())
			for i := range samples {
				samples[i] = pcm.Sample{Time: live.Access.TimeAt(i), AccessNum: live.Access.Values[i], MissNum: live.Miss.Values[i]}
			}
			var body []byte
			for off := 0; off < len(samples); off += 256 {
				if body, err = pcm.AppendBatch(body, session, samples[off:min(off+256, len(samples))]); err != nil {
					t.Fatal(err)
				}
			}
			resp, err := http.Post(srv.URL+"/v1/ingest/stream?profile=sds:"+app, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %v: ingest status %d: %s", app, mode, resp.StatusCode, msg)
			}
			if err := hub.Drain(); err != nil {
				t.Fatal(err)
			}

			rec.mu.Lock()
			got := rec.log[session]
			rec.mu.Unlock()
			if len(got) != len(live.Decisions) {
				t.Errorf("%s %v: daemon made %d decisions, Run %d", app, mode, len(got), len(live.Decisions))
				continue
			}
			first, differ := -1, 0
			for i, want := range live.Decisions {
				if got[i].Time != want.Time || got[i].Alarm != want.Alarm {
					if differ++; first < 0 {
						first = i
					}
				}
			}
			if differ > 0 {
				want := live.Decisions[first]
				t.Errorf("%s %v: %d of %d decisions differ, first %d: daemon (t=%v alarm=%v), Run (t=%v alarm=%v)",
					app, mode, differ, len(got), first, got[first].Time, got[first].Alarm, want.Time, want.Alarm)
			}
		}
	}
}

// A client that starts a request header and stops sending (slowloris)
// must be disconnected by readHeaderTimeout, and must not keep the
// daemon from answering other connections while it waits.
func TestSlowHeaderClientIsDisconnected(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out readHeaderTimeout")
	}
	hub := stream.NewHub(stream.DefaultConfig())
	defer hub.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", daemon.New(hub, nil))
	go srv.Serve(ln)
	defer srv.Close()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost:"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("complete request beside a stalled one: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz beside a stalled connection: status %d", resp.StatusCode)
	}

	// The server hangs up without a reply; a read that instead runs into
	// the deadline means the connection was still held.
	slow.SetReadDeadline(start.Add(readHeaderTimeout + time.Second))
	if _, err := io.Copy(io.Discard, slow); err != nil {
		t.Fatalf("stalled connection still open %v after its first byte: %v", time.Since(start), err)
	}
	if held := time.Since(start); held < readHeaderTimeout-time.Second {
		t.Fatalf("stalled connection closed after %v, before readHeaderTimeout %v", held, readHeaderTimeout)
	}
}
