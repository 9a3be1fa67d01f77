// Command memdosd is the always-on memory-DoS detection daemon: the
// serving layer the paper assumes runs on every hypervisor. It exposes
// the multi-tenant streaming hub (internal/stream) over HTTP — PCM
// sample producers POST batches to /v1/ingest, operators inspect
// per-VM detector state and incidents under /v1/sessions, and the hub
// counters are scraped from /metrics. High-rate producers stream
// length-prefixed binary frames to /v1/ingest/stream instead of JSON
// (e2ebench's fleet_paced and ingest_sat workloads measure that route,
// its daemon.json_ns_per_sample probe the JSON one).
//
// Usage:
//
//	memdosd [-addr :9464] [-apps KM,FN] [-shards 0] [-queue 4096]
//	        [-policy drop|block] [-merge-gap 2] [-respond]
//	        [-score-model cascade.json] [-score-stride 0]
//
// With -score-model the daemon loads a cascade saved by `memdos train
// -out` and runs it as a batched scoring service: shard goroutines
// assemble per-session sliding counter windows, a scorer goroutine
// classifies them in fused batches, and the latest verdict appears as
// "cascade" in the /v1/sessions views next to the detector state;
// memdos_dnn_* metrics track throughput, batch fill, queue depth,
// sheds and how many windows were scored from carried rows. Windows
// slide by -score-stride samples; 0 is the paper's ΔW = 50 (a verdict
// every 0.5 s at T_PCM = 10 ms, as core.DNNDetector decides), clipped
// to the model's window. Batches fuse up to 64 windows and the scoring
// queue holds 1,024 (stream.ScorerConfig's defaults); a full queue sheds
// windows, never stalls ingest.
//
// With -respond the daemon attaches a closed-loop mitigation engine
// (internal/respond) to the hub as an observer: the shard that folds an
// alarm transition calls the engine with it, in order and never shed;
// raises walk the suspect VM up a graduated throttle/partition/migrate
// ladder, clears back off with hysteresis on the session's own decision
// times (a session that stops reporting holds its rung), and DELETE
// /v1/sessions/{vm} releases whatever the session held. Stand-alone the
// engine drives a no-op actuator — the would-be actions are its own
// per-session action log, under GET /v1/responses and adjustable via POST
// /v1/responses/{vm}/override ({"mode":"pause"|"resume"|"force","level":N});
// embedders wire a real hypervisor through respond.Actuator.
//
// Detector profiles available to sessions:
//
//	raw         profile-free naive threshold detector (no setup cost)
//	sdsb:<APP>  SDS/B with <APP>'s attack-free profile
//	sds:<APP>   combined SDS with <APP>'s attack-free profile
//
// The per-application profiles are built at startup by running the named
// workloads attack-free on the simulation substrate for 300 simulated
// seconds (experiments.ProfileDuration) — the paper's "profile right
// after the VM starts, before an adversary can co-locate" assumption, and
// the profile every accuracy table scores, so an sds:<APP> session
// decides exactly as experiments.Run does on the same samples.
//
// Shutdown (SIGINT/SIGTERM) is graceful: the listener stops accepting,
// in-flight requests finish, queued samples drain through the detectors,
// and the final per-session incident logs are printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memdos/internal/core"
	"memdos/internal/daemon"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
	"memdos/internal/respond"
	"memdos/internal/stream"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "memdosd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("memdosd", flag.ContinueOnError)
	addr := fs.String("addr", ":9464", "listen address")
	apps := fs.String("apps", "KM", "comma-separated Table II apps to pre-profile ('' for none)")
	shards := fs.Int("shards", 0, "worker shards (0 = one per CPU)")
	queue := fs.Int("queue", 4096, "per-session queue capacity in samples")
	policy := fs.String("policy", "drop", "full-queue policy: drop | block")
	mergeGap := fs.Float64("merge-gap", 2, "merge incident episodes separated by <= this many seconds")
	respondOn := fs.Bool("respond", false, "attach the closed-loop mitigation engine to the alarm feed")
	scoreModel := fs.String("score-model", "", "saved dnn cascade to attach as the batched scoring service ('' disables)")
	scoreStride := fs.Int("score-stride", 0, "samples between consecutive windows (0 = the paper's ΔW, 50, clipped to the model's window)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := stream.DefaultConfig()
	cfg.Shards = *shards
	cfg.QueueCap = *queue
	cfg.MergeGap = *mergeGap
	switch *policy {
	case "drop":
		cfg.Policy = stream.DropNewest
	case "block":
		cfg.Policy = stream.Block
	default:
		return fmt.Errorf("unknown -policy %q (want drop or block)", *policy)
	}

	hub := stream.NewHub(cfg)
	if err := registerProfiles(hub, splitApps(*apps)); err != nil {
		return err
	}

	if *scoreModel != "" {
		// Window 0: the one the model was trained on, the only one its
		// compiled scorer accepts.
		cs, err := daemon.LoadCascadeScorer(*scoreModel, 0, dnn.ScorerOptions{})
		if err != nil {
			return err
		}
		scfg := stream.ScorerConfig{Stride: scoreStrideFor(*scoreStride, cs.Window())}
		if err := hub.AttachScorer(cs, scfg); err != nil {
			return err
		}
		fmt.Printf("memdosd: batched cascade scoring on (window %d, stride %d)\n", cs.Window(), scfg.Stride)
	}

	var eng *respond.Engine
	if *respondOn {
		var err error
		if eng, err = respond.New(respond.DefaultConfig(), respond.NewLogActuator()); err != nil {
			return err
		}
		detach := hub.AddObserver(eng)
		defer detach()
	}

	srv := newHTTPServer(*addr, daemon.New(hub, eng))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("memdosd: listening on %s (profiles: %s)\n", *addr, strings.Join(hub.Profiles(), ", "))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		hub.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Println("memdosd: shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	hub.Close() // drains queues through the detectors
	for _, in := range hub.Sessions() {
		fmt.Printf("memdosd: session %s (%s): %d samples, %d decisions, %d incidents\n",
			in.ID, in.Detector, in.Ingested, in.Decisions, len(in.Incidents))
	}
	st := hub.Stats()
	fmt.Printf("memdosd: bye (%d samples ingested, %d dropped, %d alarms raised)\n",
		st.SamplesIngested, st.SamplesDropped, st.AlarmsRaised)
	return nil
}

// Connection deadlines: a client gets readHeaderTimeout to finish its
// request header and an idle keep-alive connection is closed after
// idleTimeout, so a slow or silent client cannot hold a connection and
// its goroutine forever.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's server. ReadTimeout and WriteTimeout
// stay unset on purpose: /v1/ingest/stream is one long-lived request body
// and either would cut a healthy producer off mid-stream; that route
// needs a per-frame deadline instead (ROADMAP "Hardening").
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// scoreStrideFor resolves -score-stride against the loaded model's
// window: unset (<= 0) is the paper's sliding step ΔW, or the whole
// window of a model shorter than that.
func scoreStrideFor(flag, window int) int {
	if flag > 0 {
		return flag
	}
	return min(core.DefaultParams().DW, window)
}

func splitApps(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// registerProfiles installs the daemon's detector profiles: the
// profile-free "raw" fallback plus per-application SDS pipelines built
// from attack-free profiling runs.
func registerProfiles(hub *stream.Hub, apps []string) error {
	if err := hub.RegisterProfile("raw", func() (core.Detector, error) {
		return core.NewRawThreshold(0.5)
	}); err != nil {
		return err
	}
	params := core.DefaultParams()
	for _, app := range apps {
		prof, err := experiments.ProfileApp(app, experiments.ProfileDuration, params)
		if err != nil {
			return fmt.Errorf("profiling %s: %w", app, err)
		}
		if err := hub.RegisterProfile("sdsb:"+app, func() (core.Detector, error) {
			return core.NewSDSB(prof, params)
		}); err != nil {
			return err
		}
		if err := hub.RegisterProfile("sds:"+app, func() (core.Detector, error) {
			return core.NewSDS(prof, params)
		}); err != nil {
			return err
		}
	}
	return nil
}
