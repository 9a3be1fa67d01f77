package daemon

import (
	"errors"
	"fmt"
	"net/http"
	"slices"

	"memdos/internal/pcm"
	"memdos/internal/stream"
)

// maxStreamErrors is one ingest request's error budget on either route:
// a producer whose every batch fails is cut off at the 32nd error instead
// of sending garbage forever while the daemon buffers the list.
const maxStreamErrors = 32

// ingest is one request's decoded frames not yet handed to the hub, on
// either route, and the response they add up to. The binary route
// decodes its frames' samples end to end into arena.
type ingest struct {
	hub    *stream.Hub
	resp   stream.IngestResponse
	arena  []pcm.Sample
	frames []stream.Frame
	res    []stream.FrameResult
	closed bool // the hub is closing: the request ends in a 503
}

// more reports whether the request may go on: not once the hub has
// closed or the error budget is spent.
func (in *ingest) more() bool {
	return !in.closed && len(in.resp.Errors) < maxStreamErrors
}

// open auto-opens session with profile on first contact and reports
// whether its frames may go to the hub.
func (in *ingest) open(session, profile string) bool {
	err := in.hub.Ensure(session, profile)
	if err != nil {
		in.fail(session, err)
	}
	return err == nil
}

// fail records one batch's error: a closing hub ends the request, any
// other error goes on the list while the budget lasts.
func (in *ingest) fail(session string, err error) {
	if errors.Is(err, stream.ErrClosed) {
		in.closed = true
	} else if len(in.resp.Errors) < maxStreamErrors {
		in.resp.Errors = append(in.resp.Errors, fmt.Sprintf("%s: %v", session, err))
	}
}

// flush hands the gathered frames to the hub in one call, adds the
// outcome to the response and reports whether the request may go on.
func (in *ingest) flush() bool {
	if len(in.frames) > 0 {
		in.res = slices.Grow(in.res[:0], len(in.frames))[:len(in.frames)]
		in.hub.IngestFrames(in.frames, in.res) // ErrClosed is in every refused frame's result
		for i, f := range in.frames {
			in.resp.Accepted += in.res[i].Accepted
			if err := in.res[i].Err; err != nil {
				in.fail(f.Session, err)
			} else {
				in.resp.Dropped += len(f.Samples) - in.res[i].Accepted
			}
		}
		clear(in.frames) // hold no sample slices or ids between hand-offs
		in.frames, in.arena = in.frames[:0], in.arena[:0]
	}
	return in.more()
}

// finish hands over what was gathered, so every frame before a bad one
// is applied, and writes the response: 503 once the hub has closed, so
// producers back off; else err, a 400, if the request could not be read
// to its end; else the IngestResponse, a 400 when nothing was accepted
// but something failed.
func (in *ingest) finish(w http.ResponseWriter, err error) {
	in.flush()
	switch {
	case in.closed:
		writeError(w, http.StatusServiceUnavailable, stream.ErrClosed)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	case in.resp.Accepted == 0 && len(in.resp.Errors) > 0:
		writeJSON(w, http.StatusBadRequest, in.resp)
	default:
		writeJSON(w, http.StatusOK, in.resp)
	}
}
