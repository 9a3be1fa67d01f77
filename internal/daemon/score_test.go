package daemon

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/pcm"
	"memdos/internal/sim"
	"memdos/internal/stream"
)

// testCascadeScorer compiles testCascade for batched scoring, the way
// run() does from a saved model file.
func testCascadeScorer(t *testing.T, window int) *CascadeScorer {
	t.Helper()
	cs, err := NewCascadeScorer(testCascade(t, window), window, dnn.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// testCascade builds a small untrained cascade with a fitted norm.
func testCascade(t *testing.T, window int) *dnn.Cascade {
	t.Helper()
	rng := sim.NewRNG(91)
	c, err := dnn.NewCascade(2, dnn.CompactLSTMFCNConfig, sim.NewRNG(92))
	if err != nil {
		t.Fatal(err)
	}
	windows := make([][][]float64, 24)
	for i := range windows {
		w := make([][]float64, window)
		for j := range w {
			w[j] = []float64{100 + rng.Normal(0, 8), 10 + rng.Normal(0, 1)}
		}
		windows[i] = w
	}
	if c.Norm, err = dnn.FitChannelNorm(windows); err != nil {
		t.Fatal(err)
	}
	return c
}

// The full serving path must carry cascade verdicts: samples POSTed to
// /v1/ingest assemble into windows, the scoring service classifies them,
// and /v1/sessions/{id} reports the verdict next to the detector state.
func TestEndToEndCascadeScoring(t *testing.T) {
	const window = 20
	cfg := stream.DefaultConfig()
	cfg.Shards = 1
	cfg.Policy = stream.Block
	hub := stream.NewHub(cfg)
	if err := hub.RegisterProfile("raw", func() (core.Detector, error) {
		return core.NewRawThreshold(0.5)
	}); err != nil {
		t.Fatal(err)
	}
	cs := testCascadeScorer(t, window)
	if err := hub.AttachScorer(cs, stream.ScorerConfig{Stride: window / 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(hub, nil))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { hub.Close() })

	// 50 samples, window 20, stride 10: windows starting at samples
	// 1, 11, 21, 31 — four scored windows.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/ingest", ingestBody("vm-dnn", "raw", 50, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	if err := hub.Drain(); err != nil {
		t.Fatal(err)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/vm-dnn", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: %d %s", resp.StatusCode, body)
	}
	var in stream.SessionInfo
	if err := json.Unmarshal(body, &in); err != nil {
		t.Fatalf("decoding session: %v\n%s", err, body)
	}
	if in.Cascade == nil {
		t.Fatalf("session carries no cascade verdict:\n%s", body)
	}
	if in.Cascade.Windows != 4 {
		t.Fatalf("verdict windows = %d, want 4:\n%s", in.Cascade.Windows, body)
	}
	if in.Cascade.Attack == "" {
		t.Fatalf("verdict has no attack label:\n%s", body)
	}
	switch in.Cascade.Attack {
	case "none", "bus-lock", "cleansing":
	default:
		t.Fatalf("unknown attack label %q", in.Cascade.Attack)
	}
	if in.Cascade.App < 0 || in.Cascade.App > 1 {
		t.Fatalf("app %d out of range for a 2-app cascade", in.Cascade.App)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, m := range []string{"memdos_dnn_windows_scored_total", "memdos_dnn_batches_total",
		"memdos_dnn_windows_continued_total", "memdos_dnn_carry_bytes"} {
		if !strings.Contains(string(body), m) {
			t.Fatalf("metrics missing %s", m)
		}
	}
	st := hub.ScorerStats()
	if !st.Attached || st.WindowsScored != 4 {
		t.Fatalf("scorer stats %+v, want 4 windows scored", st)
	}
}

// recordingScorer is a CascadeScorer that keeps every window the hub
// scored through it, with the verdict it returned, in a log its forks
// share: whichever worker scores a window, the log has it.
type recordingScorer struct {
	*CascadeScorer
	log *scoreLog
}

// scoreLog is what a recordingScorer and its forks scored. An optional
// gate holds every call until closed, to let the scoring queues overflow.
type scoreLog struct {
	gate    chan struct{}
	mu      sync.Mutex
	windows [][]float64
	apps    []int
	attacks []int
}

func (r *recordingScorer) Fork() stream.SlidingScorer {
	return &recordingScorer{CascadeScorer: r.CascadeScorer.Fork().(*CascadeScorer), log: r.log}
}

func (r *recordingScorer) ScoreCarried(n int, flat []float64, carry []stream.SessionCarry, ord []uint64, apps, attacks []int) int {
	if r.log.gate != nil {
		<-r.log.gate
	}
	continued := r.CascadeScorer.ScoreCarried(n, flat, carry, ord, apps, attacks)
	w2 := 2 * r.Window()
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	for i := 0; i < n; i++ {
		r.log.windows = append(r.log.windows, append([]float64(nil), flat[i*w2:(i+1)*w2]...))
	}
	r.log.apps = append(r.log.apps, apps[:n]...)
	r.log.attacks = append(r.log.attacks, attacks[:n]...)
	return continued
}

// shiftingSamples is n samples of a counter stream whose level shifts
// every period samples, so the app verdict of a sliding window flips now
// and then.
func shiftingSamples(rng *sim.RNG, from, n, period int) []pcm.Sample {
	out := make([]pcm.Sample, n)
	for i := range out {
		k := from + i
		acc, miss := 100+rng.Normal(0, 8), 10+rng.Normal(0, 1)
		if (k/period)%2 == 1 {
			acc, miss = acc*0.05, miss*12
		}
		out[i] = pcm.Sample{Time: float64(k) / 100, AccessNum: math.Max(acc, 0), MissNum: math.Max(miss, 0)}
	}
	return out
}

// Every verdict the hub's sliding path hands out — not only each
// session's last, and from both workers of a two-shard hub — must equal
// a stateless batch-1 ScoreFlat of the same window on a second scorer:
// with every window scored (Block), and with the scoring queues small
// enough that windows are shed and the sessions' carries have to be
// abandoned and rebuilt (DropNewest).
func TestHubCarriedVerdictsMatchStateless(t *testing.T) {
	const window, stride, sessions = 40, 5, 3
	for _, tc := range []struct {
		name   string
		policy stream.Policy
		scfg   stream.ScorerConfig
		shed   bool
	}{
		{"block", stream.Block, stream.ScorerConfig{Stride: stride}, false},
		{"shed", stream.DropNewest, stream.ScorerConfig{Stride: stride, QueueCap: 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stream.DefaultConfig()
			cfg.Shards = 2
			cfg.Policy = tc.policy
			hub := stream.NewHub(cfg)
			defer hub.Close()
			if err := hub.RegisterProfile("raw", func() (core.Detector, error) {
				return core.NewRawThreshold(0.5)
			}); err != nil {
				t.Fatal(err)
			}
			c := testCascade(t, window)
			rec := &recordingScorer{CascadeScorer: testCascadeScorer(t, window), log: &scoreLog{}}
			if tc.shed {
				rec.log.gate = make(chan struct{})
			}
			if err := hub.AttachScorer(rec, tc.scfg); err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(17)
			feed := func(from, n int) {
				for s := 0; s < sessions; s++ {
					id := fmt.Sprintf("vm-%d", s)
					if from == 0 {
						if err := hub.Open(id, "raw"); err != nil {
							t.Fatal(err)
						}
					}
					if got, err := hub.Ingest(id, shiftingSamples(rng, from, n, 30+7*s)); err != nil || got != n {
						t.Fatalf("ingest %s: %d of %d accepted, %v", id, got, n, err)
					}
				}
			}
			feed(0, 400)
			if tc.shed {
				close(rec.log.gate) // the queues overflowed behind the held calls
			}
			if err := hub.Drain(); err != nil {
				t.Fatal(err)
			}
			// One window a session between barriers fits any queue: these
			// follow each other whatever was shed before them.
			for from := 400; from < 480; from += stride {
				feed(from, stride)
				if err := hub.Drain(); err != nil {
					t.Fatal(err)
				}
			}

			st := hub.ScorerStats()
			if int(st.WindowsScored) != len(rec.log.windows) || st.WindowsContinued == 0 || st.Workers != cfg.Shards {
				t.Fatalf("stats %+v with %d windows recorded", st, len(rec.log.windows))
			}
			if tc.shed == (st.WindowsDropped == 0) {
				t.Fatalf("shed=%v but %d windows dropped", tc.shed, st.WindowsDropped)
			}
			if want := int64(sessions * 4 * window * 2 * 12); st.CarryBytes != want {
				t.Fatalf("carry bytes %d, want %d (2 stages x T x 12 channels x 4 B a session)", st.CarryBytes, want)
			}
			ref, err := c.Scorer(window, dnn.ScorerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var app, attack [1]int
			seen := map[int]bool{}
			for i, win := range rec.log.windows {
				ref.ScoreFlat(1, win, app[:], attack[:])
				if app[0] != rec.log.apps[i] || attack[0] != rec.log.attacks[i] {
					t.Fatalf("window %d of %d: hub verdict (%d,%d), stateless (%d,%d)",
						i, len(rec.log.windows), rec.log.apps[i], rec.log.attacks[i], app[0], attack[0])
				}
				seen[app[0]] = true
			}
			if !tc.shed && len(seen) < 2 {
				t.Fatal("one app verdict throughout: inputs do not exercise the attack stage's condition check")
			}
		})
	}
}

// NewCascadeScorer must refuse a cascade with no usable window rather
// than compiling a degenerate scorer.
func TestCascadeScorerNeedsWindow(t *testing.T) {
	c, err := dnn.NewCascade(2, dnn.CompactLSTMFCNConfig, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCascadeScorer(c, 0, dnn.ScorerOptions{}); err == nil {
		t.Fatal("accepted cascade without an intrinsic window")
	}
}

// AttackName must translate every defined class and degrade gracefully.
func TestCascadeScorerAttackNames(t *testing.T) {
	cs := &CascadeScorer{}
	want := map[int]string{
		dnn.ClassNoAttack:  "none",
		dnn.ClassBusLock:   "bus-lock",
		dnn.ClassCleansing: "cleansing",
		7:                  "class-7",
	}
	for class, name := range want {
		if got := cs.AttackName(class); got != name {
			t.Fatalf("AttackName(%d) = %q, want %q", class, got, name)
		}
	}
}
