package daemon

import (
	"fmt"
	"io"
	"net/http"

	"memdos/internal/pcm"
	"memdos/internal/stream"
)

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
// Framing errors (corrupt length prefix, undecodable frame) are fatal
// to the request — the stream cannot be resynchronized — and yield a
// 400 carrying the frame index. Everything after the decode is the JSON
// route's (ingest): ?profile= auto-opens unknown sessions like a batch's
// "profile" field, per-batch errors spend the request's error budget,
// and a closing hub yields 503.
//
//memdos:hotpath
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	profile := r.URL.Query().Get("profile")

	fr := pcm.NewFrameReader(r.Body, pcm.MaxFrameBytes)
	var (
		in    = ingest{hub: s.hub}
		frame int
		// sessions interns each session ID that opened, once, so the
		// per-frame lookup is an allocation-free map hit on []byte-keyed
		// string conversion. A session whose auto-open failed is not
		// interned: each of its frames retries the open and, like a JSON
		// batch, spends one error of the budget.
		sessions = make(map[string]string)
	)
	for in.more() {
		if !fr.Ready() && !in.flush() {
			break
		}
		body, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			in.finish(w, fmt.Errorf("frame %d: %w", frame, err))
			return
		}
		frame++
		sessBytes, arena, err := pcm.DecodeBatchInto(in.arena, body)
		if err != nil {
			in.finish(w, fmt.Errorf("frame %d: %w", frame, err))
			return
		}
		batch := arena[len(in.arena):]

		sess, seen := sessions[string(sessBytes)]
		if !seen {
			sess = string(sessBytes)
			if profile != "" && !in.open(sess, profile) {
				continue
			}
			sessions[sess] = sess
		}
		in.arena = arena
		in.frames = append(in.frames, stream.Frame{Session: sess, Samples: batch})
	}
	in.finish(w, nil)
}
