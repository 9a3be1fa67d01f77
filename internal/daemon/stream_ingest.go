package daemon

import (
	"errors"
	"fmt"
	"io"
	"net/http"

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
// Each frame carries one session's batch and is applied as soon as it
// arrives — the response (a stream.IngestResponse, like /v1/ingest)
// is written when the producer closes its end of the body.
//
// The whole per-connection decode state — frame buffer, sample slice,
// session-ID intern table — is allocated once and reused for every
// frame, so a long-lived producer costs no steady-state garbage
// (TestStreamIngestAllocsDoNotGrowWithFrames pins it).
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
		resp    stream.IngestResponse
		samples []pcm.Sample
		frame   int
		// sessions interns each distinct session ID once so the per-frame
		// lookup is an allocation-free map hit on []byte-keyed string
		// conversion. The value is "" while the session is known-bad
		// (failed auto-open) so repeated frames don't retry the open.
		sessions = make(map[string]string)
	)
	for {
		body, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("frame %d: %w", frame, err))
			return
		}
		frame++
		sessBytes, batch, err := pcm.DecodeBatchInto(samples[:0], body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("frame %d: %w", frame, err))
			return
		}
		samples = batch

		sess, seen := sessions[string(sessBytes)]
		if !seen {
			sess = string(sessBytes)
			if profile != "" {
				if err := s.ensureSession(sess, profile); err != nil {
					sessions[sess] = ""
					resp.Errors = append(resp.Errors, fmt.Sprintf("%s: %v", sess, err))
					if len(resp.Errors) >= maxStreamErrors {
						s.finishStream(w, resp)
						return
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

		n, err := s.hub.Ingest(sess, batch)
		if err != nil {
			if errors.Is(err, stream.ErrClosed) {
				writeError(w, http.StatusServiceUnavailable, err)
				return
			}
			resp.Errors = append(resp.Errors, fmt.Sprintf("%s: %v", sess, err))
			if len(resp.Errors) >= maxStreamErrors {
				s.finishStream(w, resp)
				return
			}
			continue
		}
		resp.Accepted += n
		resp.Dropped += len(batch) - n
	}
	s.finishStream(w, resp)
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
