package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"memdos/internal/daemon"
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
}

// -score-stride 0 is the paper's ΔW = 50 (what core.DNNDetector and
// cascade_replay slide by), never the non-overlapping window, and a
// short model's window caps it; an explicit stride passes through for
// AttachScorer to judge.
func TestScoreStrideDefault(t *testing.T) {
	for _, tc := range []struct{ flag, window, want int }{
		{0, 200, 50},
		{-1, 200, 50},
		{0, 20, 20},
		{10, 200, 10},
		{200, 200, 200},
		{300, 200, 300},
	} {
		if got := scoreStrideFor(tc.flag, tc.window); got != tc.want {
			t.Errorf("scoreStrideFor(%d, %d) = %d, want %d", tc.flag, tc.window, got, tc.want)
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
