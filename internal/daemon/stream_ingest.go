package daemon

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"memdos/internal/pcm"
	"memdos/internal/stream"
)

// maxStreamErrors caps the per-batch error list of one streaming
// request: a producer whose every frame fails (unknown session, closed
// hub) is cut off instead of being allowed to stream garbage forever
// while the daemon buffers an unbounded error list.
const maxStreamErrors = 32

// handleIngestStream is the binary fleet-scale ingest path:
//
//	POST /v1/ingest/stream?profile=raw
//
// The request body is an unbounded sequence of length-prefixed binary
// frames (pcm.AppendBatch wire format) on one persistent connection.
// Each frame carries one session's batch and is applied before the next
// read from the connection — the response (a stream.IngestResponse, like
// /v1/ingest) is written when the producer closes its end of the body.
//
// Frames are decoded into one per-connection sample arena while the
// reader's buffer holds them whole, and handed to the hub together, in
// one Hub.IngestFrames call (one hand-off per shard), just before the
// reader would have to read again: the hand-off follows the input, never
// a count or a timer. So a producer that stalls still has every frame it
// sent applied, and the arena never holds more than one read buffer's
// worth of frames (pcm.FrameReadBuffer).
//
// The whole per-connection decode state — read buffer, sample arena,
// frame list, session-ID intern table — is allocated once and reused
// for every frame, so a long-lived producer costs no steady-state
// garbage (TestStreamIngestAllocsDoNotGrowWithFrames pins it).
//
// The optional ?profile= query parameter auto-opens unknown sessions
// with that detector profile on first contact, mirroring the JSON
// route's per-batch "profile" field.
//
// Framing errors (corrupt length prefix, undecodable frame) are fatal
// to the request — the stream cannot be resynchronized — and yield a
// 400 carrying the frame index. Per-batch application errors (unknown
// session, queue policy) are collected like the JSON route's and do not
// stop the stream until maxStreamErrors is reached. A closing hub
// (daemon shutdown) yields 503 so producers know to back off.
//
//memdos:hotpath
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	profile := r.URL.Query().Get("profile")

	fr := pcm.NewFrameReader(r.Body, pcm.MaxFrameBytes)
	var (
		resp  stream.IngestResponse
		frame int
		// sessions interns each distinct session ID once so the per-frame
		// lookup is an allocation-free map hit on []byte-keyed string
		// conversion. The value is "" while the session is known-bad
		// (failed auto-open) so repeated frames don't retry the open.
		sessions = make(map[string]string)
		h        = streamHandoff{hub: s.hub, resp: &resp}
	)
	for {
		if !fr.Ready() {
			if !h.flush() {
				break
			}
		}
		body, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			h.fail(w, http.StatusBadRequest, fmt.Errorf("frame %d: %w", frame, err))
			return
		}
		frame++
		sessBytes, arena, err := pcm.DecodeBatchInto(h.arena, body)
		if err != nil {
			h.fail(w, http.StatusBadRequest, fmt.Errorf("frame %d: %w", frame, err))
			return
		}
		batch := arena[len(h.arena):]

		sess, seen := sessions[string(sessBytes)]
		if !seen {
			sess = string(sessBytes)
			if profile != "" {
				if err := s.ensureSession(sess, profile); err != nil {
					sessions[sess] = ""
					resp.Errors = append(resp.Errors, fmt.Sprintf("%s: %v", sess, err))
					if len(resp.Errors) >= maxStreamErrors {
						break
					}
					continue
				}
			}
			sessions[sess] = sess
		} else if sess == "" {
			// Session already failed to open; count the batch against the
			// cap but don't repeat the error message.
			resp.Dropped += len(batch)
			continue
		}
		h.arena = arena
		h.frames = append(h.frames, stream.Frame{Session: sess, Samples: batch})
	}
	if h.flush(); h.closed {
		writeError(w, http.StatusServiceUnavailable, stream.ErrClosed)
		return
	}
	s.finishStream(w, resp)
}

// streamHandoff is a streaming request's frames decoded but not yet
// handed to the hub: their samples lie end to end in arena.
type streamHandoff struct {
	hub    *stream.Hub
	resp   *stream.IngestResponse
	arena  []pcm.Sample
	frames []stream.Frame
	res    []stream.FrameResult
	// closed records that the hub refused a hand-off because it is
	// closing; the request then ends in a 503.
	closed bool
}

// flush hands the gathered frames to the hub in one call and adds the
// outcome to the response. It reports whether the stream may go on:
// not once the hub has closed or the error list is full.
func (h *streamHandoff) flush() bool {
	if len(h.frames) > 0 {
		h.res = slices.Grow(h.res[:0], len(h.frames))[:len(h.frames)]
		if err := h.hub.IngestFrames(h.frames, h.res); errors.Is(err, stream.ErrClosed) {
			h.closed = true
		}
		for i, f := range h.frames {
			res := h.res[i]
			if res.Err != nil && !errors.Is(res.Err, stream.ErrClosed) && len(h.resp.Errors) < maxStreamErrors {
				h.resp.Errors = append(h.resp.Errors, fmt.Sprintf("%s: %v", f.Session, res.Err))
			}
			h.resp.Accepted += res.Accepted
			if res.Err == nil {
				h.resp.Dropped += len(f.Samples) - res.Accepted
			}
		}
		clear(h.frames) // hold no sample slices or ids between hand-offs
		h.frames, h.arena = h.frames[:0], h.arena[:0]
	}
	return !h.closed && len(h.resp.Errors) < maxStreamErrors
}

// fail hands over what was gathered, so every frame before a bad one is
// applied as it would have been frame by frame, and writes the error.
func (h *streamHandoff) fail(w http.ResponseWriter, status int, err error) {
	h.flush()
	if h.closed {
		status, err = http.StatusServiceUnavailable, stream.ErrClosed
	}
	writeError(w, status, err)
}

// finishStream writes the terminal response of a streaming request,
// with the same status rule as the JSON route: all-errors is a 400.
func (s *Server) finishStream(w http.ResponseWriter, resp stream.IngestResponse) {
	status := http.StatusOK
	if resp.Accepted == 0 && len(resp.Errors) > 0 {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}
