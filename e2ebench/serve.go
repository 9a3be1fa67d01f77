package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"memdos/internal/core"
	"memdos/internal/daemon"
	"memdos/internal/experiments"
	"memdos/internal/respond"
	"memdos/internal/stream"
)

// The serving system under test, assembled the way cmd/memdosd does it:
// per-application SDS profiles, a hub, sessions, daemon.New behind an
// http.Server on a loopback listener, optionally respond.Attach with a
// time-stamping actuator. Everything here counts towards setup_s.

// servingSpec sizes one build.
type servingSpec struct {
	sessions    int
	phases      int
	conns       int
	policy      stream.Policy
	shards      int // 0 = one per CPU
	queueCap    int // 0 = hub default
	shardBuffer int // 0 = hub default
	respond     bool
	listen      bool // false: no listener or connections (direct Hub.Ingest)
}

type servingSys struct {
	in       *inputs
	sessions []sessionSpec
	byID     map[string]sessionSpec
	// factories builds a fresh detector per family, the same closure the
	// hub profile uses; the reference replays go through it too.
	factories []stream.DetectorFactory

	hub      *stream.Hub
	eng      *respond.Engine
	act      *stampActuator
	stopPump func()
	srv      *http.Server
	served   chan error
	conns    []*streamConn
}

// buildServing assembles one complete system: profiles, hub, sessions,
// respond engine, listener and established ingest connections.
func buildServing(in *inputs, spec servingSpec) (*servingSys, error) {
	s := &servingSys{in: in, sessions: makeSessions(in, spec.sessions, spec.phases),
		byID: make(map[string]sessionSpec, spec.sessions)}
	for _, ss := range s.sessions {
		s.byID[ss.id] = ss
	}
	cfg := stream.DefaultConfig()
	cfg.Policy = spec.policy
	cfg.Shards = spec.shards
	cfg.QueueCap = spec.queueCap
	cfg.ShardBuffer = spec.shardBuffer
	s.hub = stream.NewHub(cfg)
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	var err error
	if s.factories, err = detectorFactories(in); err != nil {
		return nil, err
	}
	for i, f := range in.families {
		if err := s.hub.RegisterProfile(f.profile, s.factories[i]); err != nil {
			return nil, err
		}
	}
	for _, ss := range s.sessions {
		if err := s.hub.Open(ss.id, in.families[ss.family].profile); err != nil {
			return nil, err
		}
	}
	if spec.respond {
		s.act = newStampActuator(spec.sessions)
		eng, err := respond.New(respond.DefaultConfig(), s.act)
		if err != nil {
			return nil, err
		}
		s.eng = eng
		// Twice the session count covers a raise and a clear of every
		// session at one instant, the worst burst the hub documents.
		s.stopPump = respond.Attach(s.hub, eng, 2*spec.sessions)
	}
	if spec.listen {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.srv = &http.Server{Handler: daemon.New(s.hub, s.eng)}
		s.served = make(chan error, 1)
		go func() { s.served <- s.srv.Serve(ln) }()
		for i := 0; i < spec.conns; i++ {
			c, err := dialStream(ln.Addr().String())
			if err != nil {
				return nil, err
			}
			s.conns = append(s.conns, c)
		}
	}
	ok = true
	return s, nil
}

// detectorFactories profiles each family's application attack-free, as
// memdosd does at start-up, and returns one SDS factory per family.
func detectorFactories(in *inputs) ([]stream.DetectorFactory, error) {
	params := core.DefaultParams()
	out := make([]stream.DetectorFactory, 0, len(in.families))
	for _, f := range in.families {
		prof, err := experiments.ProfileApp(f.app, profileDur, params)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", f.app, err)
		}
		out = append(out, func() (core.Detector, error) { return core.NewSDS(prof, params) })
	}
	return out, nil
}

// finishStreams ends every ingest connection's request body and collects
// the daemon's terminal responses.
func (s *servingSys) finishStreams() (accepted, dropped int, errs []string, err error) {
	for _, c := range s.conns {
		resp, ferr := c.finish()
		if ferr != nil {
			err = errors.Join(err, ferr)
			continue
		}
		accepted += resp.Accepted
		dropped += resp.Dropped
		errs = append(errs, resp.Errors...)
	}
	return accepted, dropped, errs, err
}

// close tears the system down in dependency order — connections, HTTP
// server, respond pump, hub — and returns once every goroutine it
// started has exited.
func (s *servingSys) close() error {
	var err error
	for _, c := range s.conns {
		c.close()
	}
	s.conns = nil
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if serr := s.srv.Shutdown(ctx); serr != nil {
			err = errors.Join(err, serr, s.srv.Close())
		}
		cancel()
		if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		s.srv = nil
	}
	if s.stopPump != nil {
		s.stopPump()
		s.stopPump = nil
	}
	return errors.Join(err, s.hub.Close())
}

// streamConn is one persistent POST /v1/ingest/stream request on a raw
// loopback TCP connection, its body sent with chunked transfer encoding.
// The benchmark speaks the few lines of HTTP/1.1 itself so that one
// generator write is exactly one socket write and the client side adds
// no goroutines or copies of its own to the measurement.
type streamConn struct {
	c   net.Conn
	buf []byte // chunk under construction: header, payload, CRLF
}

const chunkHeaderLen = 10 // 8 hex digits + CRLF

func dialStream(addr string) (*streamConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	req := "POST /v1/ingest/stream HTTP/1.1\r\nHost: " + addr +
		"\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\r\n"
	if _, err := c.Write([]byte(req)); err != nil {
		c.Close()
		return nil, err
	}
	return &streamConn{c: c}, nil
}

// begin resets the chunk buffer and returns it with room reserved for
// the chunk header; append frames to the returned slice and pass it to
// send.
func (sc *streamConn) begin() []byte {
	return append(sc.buf[:0], "00000000\r\n"...)
}

// send writes the chunk begun with begin in one socket write.
func (sc *streamConn) send(chunk []byte) error {
	const hex = "0123456789abcdef"
	n := len(chunk) - chunkHeaderLen
	for i := 7; i >= 0; i-- {
		chunk[i] = hex[n&0xf]
		n >>= 4
	}
	chunk = append(chunk, '\r', '\n')
	sc.buf = chunk
	_, err := sc.c.Write(chunk)
	return err
}

// finish ends the body and reads the daemon's response.
func (sc *streamConn) finish() (stream.IngestResponse, error) {
	var out stream.IngestResponse
	if _, err := sc.c.Write([]byte("0\r\n\r\n")); err != nil {
		return out, err
	}
	if err := sc.c.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return out, err
	}
	resp, err := http.ReadResponse(bufio.NewReader(sc.c), nil)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("ingest stream response (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("ingest stream status %d: %v", resp.StatusCode, out.Errors)
	}
	return out, nil
}

func (sc *streamConn) close() { sc.c.Close() }

// stampActuator is the benchmark's respond.Actuator: it records when the
// engine called it for which session, and nothing else.
type stampActuator struct {
	mu sync.Mutex
	// calls holds, per session index, the times of the engine's calls in
	// order. guarded by mu.
	calls map[string][]time.Time
}

func newStampActuator(sessions int) *stampActuator {
	return &stampActuator{calls: make(map[string][]time.Time, sessions)}
}

func (a *stampActuator) stamp(session string) {
	now := time.Now()
	a.mu.Lock()
	a.calls[session] = append(a.calls[session], now)
	a.mu.Unlock()
}

func (a *stampActuator) Throttle(session string, _ float64) error       { a.stamp(session); return nil }
func (a *stampActuator) LimitBandwidth(session string, _ float64) error { a.stamp(session); return nil }
func (a *stampActuator) Partition(session string, _ bool) error         { a.stamp(session); return nil }
func (a *stampActuator) Migrate(session string) (respond.MigrateResult, error) {
	a.stamp(session)
	return respond.MigrateResult{}, nil
}

// firstCallAtOrAfter returns the first recorded call for the session at
// or after t.
func (a *stampActuator) firstCallAtOrAfter(session string, t time.Time) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.calls[session] {
		if !c.Before(t) {
			return c, true
		}
	}
	return time.Time{}, false
}

// arrival is one alarm event as the benchmark's own subscription saw it.
type arrival struct {
	ev stream.AlarmEvent
	at time.Time
}

// collectEvents subscribes the benchmark to the hub's alarm feed and
// stamps every event on receipt. stop cancels the subscription, waits for
// the buffered events and returns everything seen. The buffer is 4x the
// worst documented burst (every session raising and clearing at once), so
// the benchmark's own subscription never sheds.
func (s *servingSys) collectEvents() (stop func() []arrival) {
	ch, cancel := s.hub.Subscribe(8 * len(s.sessions))
	var got []arrival
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ch {
			got = append(got, arrival{ev: ev, at: time.Now()})
		}
	}()
	return func() []arrival {
		cancel()
		<-done
		return got
	}
}

// checkSamples is the harness's own bookkeeping: every sample sent was
// either ingested or shed, by the hub's count and by the daemon's, and the
// alarm feed lost nothing.
func checkSamples(final stream.HubStats, accepted, refused, sent int) error {
	if int(final.SamplesIngested+final.SamplesDropped) != sent || accepted+refused != sent {
		return fmt.Errorf("harness: sent %d samples, hub counts %d+%d, daemon reports %d+%d",
			sent, final.SamplesIngested, final.SamplesDropped, accepted, refused)
	}
	if final.SubscriberDropped != 0 {
		return fmt.Errorf("harness: %d alarm events shed on a subscriber buffer", final.SubscriberDropped)
	}
	return nil
}

// checkEvents compares what the hub published against the reference
// replay, per session: the lists of (Time, Raised) must be equal. It
// returns the number of reference events and the number of missing,
// extra or different ones.
func (s *servingSys) checkEvents(got []arrival, perSession func(sessionSpec) int) (expected, bad int, err error) {
	bySession := make(map[string][]transition, len(s.sessions))
	for _, a := range got {
		bySession[a.ev.Session] = append(bySession[a.ev.Session], transition{Time: a.ev.Time, Raised: a.ev.Raised})
	}
	// One replay per distinct (family, phase); sessions sharing both see
	// identical samples.
	type key struct{ family, phase, n int }
	refs := make(map[key][]transition)
	for _, ss := range s.sessions {
		k := key{ss.family, ss.phase, perSession(ss)}
		ref, done := refs[k]
		if !done {
			det, derr := s.factories[ss.family]()
			if derr != nil {
				return 0, 0, derr
			}
			ref = s.in.referenceEvents(det, ss, k.n)
			refs[k] = ref
		}
		expected += len(ref)
		bad += diffTransitions(ref, bySession[ss.id])
	}
	return expected, bad, nil
}

// diffTransitions counts positions where the two lists disagree, plus
// the length difference.
func diffTransitions(want, got []transition) int {
	bad := 0
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(want) || i >= len(got) || !sameTransition(want[i], got[i]) {
			bad++
		}
	}
	return bad
}

func sameTransition(a, b transition) bool {
	return a.Raised == b.Raised && math.Float64bits(a.Time) == math.Float64bits(b.Time)
}
