// Package daemon is memdosd's serving layer: the HTTP surface that
// wires the multi-tenant streaming hub (internal/stream) — and
// optionally the closed-loop mitigation engine (internal/respond) — to
// sample producers and operators. Build is the assembly: memdosd, tests
// and the end-to-end benchmark (e2ebench) get the daemon's data path
// from it without spawning a process.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"

	"memdos/internal/metrics"
	"memdos/internal/respond"
	"memdos/internal/stream"
)

// Server wires the streaming hub to the HTTP API:
//
//	POST /v1/ingest        batched JSON samples, many sessions per call
//	POST /v1/ingest/stream persistent binary frame stream (see stream_ingest.go)
//	                       (both: 503 on shutdown, at most 32 errors a request)
//	POST /v1/sessions      open a session {"session":..,"profile":..}
//	GET  /v1/sessions      list all sessions
//	GET  /v1/sessions/{id} one session: detector state, open incidents
//	DELETE /v1/sessions/{id}
//	GET  /v1/responses     mitigation state per session (404 unless -respond)
//	POST /v1/responses/{id}/override  operator pause/resume/force (404 unless {id} is open)
//	GET  /metrics          Prometheus text exposition of the hub counters
//	GET  /healthz          liveness
//	GET  /debug/pprof/...  live CPU/heap/goroutine profiling (net/http/pprof)
type Server struct {
	hub      *stream.Hub
	eng      *respond.Engine // nil when the daemon runs detection-only
	registry *metrics.Registry
	mux      *http.ServeMux
}

// New assembles the daemon's HTTP handler around hub. eng may be nil
// for a detection-only daemon.
func New(hub *stream.Hub, eng *respond.Engine) *Server {
	s := &Server{hub: hub, eng: eng, registry: metrics.NewRegistry(), mux: http.NewServeMux()}
	hub.RegisterMetrics(s.registry)
	metrics.RegisterRuntimeGC(s.registry)
	if eng != nil {
		eng.RegisterMetrics(s.registry)
	}
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/ingest/stream", s.handleIngestStream)
	s.mux.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	s.mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCloseSession)
	s.mux.HandleFunc("GET /v1/responses", s.handleListResponses)
	s.mux.HandleFunc("POST /v1/responses/{id}/override", s.handleOverride)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Live profiling of the always-on daemon. The daemon uses a custom mux,
	// so the net/http/pprof handlers are wired explicitly rather than via
	// DefaultServeMux. Operators who expose -addr beyond localhost should
	// front these with the same access controls as /metrics.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, err := stream.DecodeIngest(http.MaxBytesReader(w, r.Body, stream.MaxIngestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The whole request is one hand-off: every batch whose session is
	// open goes to the hub in one call.
	in := ingest{hub: s.hub, frames: make([]stream.Frame, 0, len(req.Batches))}
	for i := 0; i < len(req.Batches) && in.more(); i++ {
		b := &req.Batches[i]
		if b.Profile != "" && !in.open(b.Session, b.Profile) {
			continue
		}
		in.frames = append(in.frames, stream.Frame{Session: b.Session, Samples: b.Samples})
	}
	in.finish(w, nil)
}

// OpenSessionRequest is the body of POST /v1/sessions.
type OpenSessionRequest struct {
	Session string `json:"session"`
	Profile string `json:"profile"`
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	var req OpenSessionRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.hub.Open(req.Session, req.Profile); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, stream.ErrSessionOpen) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	in, _ := s.hub.Session(req.Session)
	writeJSON(w, http.StatusCreated, in)
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions": s.hub.Sessions(),
		"profiles": s.hub.Profiles(),
	})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	in, ok := s.hub.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, in)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	// The hub makes the attached engine forget the session, releasing any
	// mitigation still applied on its behalf.
	if err := s.hub.CloseSession(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": r.PathValue("id")})
}

func (s *Server) handleListResponses(w http.ResponseWriter, r *http.Request) {
	if s.eng == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("mitigation disabled (start memdosd with -respond)"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ladder":   s.eng.Ladder(),
		"sessions": s.eng.States(),
	})
}

// overrideRequest is the operator override body: mode "pause" releases
// the session's mitigation and ignores its alarms, "resume" returns it to
// automatic policy, "force" pins it at the given ladder rung (level -1 =
// unpin).
type overrideRequest struct {
	Mode  string `json:"mode"`
	Level *int   `json:"level,omitempty"`
}

func (s *Server) handleOverride(w http.ResponseWriter, r *http.Request) {
	if s.eng == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("mitigation disabled (start memdosd with -respond)"))
		return
	}
	// Only an open session has a close to end its engine record.
	id := r.PathValue("id")
	if _, ok := s.hub.Session(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	var req overrideRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var st respond.SessionState
	var err error
	switch req.Mode {
	case "pause":
		st, err = s.eng.Pause(id)
	case "resume":
		st, err = s.eng.Resume(id)
	case "force":
		if req.Level == nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf(`mode "force" needs a level`))
			return
		}
		st, err = s.eng.Force(id, *req.Level)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q (pause|resume|force)", req.Mode))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.registry.WriteTo(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
