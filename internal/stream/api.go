package stream

import (
	"encoding/json"
	"fmt"
	"io"

	"memdos/internal/pcm"
)

// Wire types of the memdosd ingestion API (POST /v1/ingest). The decoder
// is deliberately strict — it faces the network: unknown fields, partial
// samples, non-finite counters, oversized payloads and trailing garbage
// are all errors, never panics (FuzzDecodeIngest enforces this).
//
// # Alarm delivery guarantee
//
// Each session's core.IncidentFold decides which decisions are alarm
// transitions (a raise or a clear); the hub hands each one to two kinds
// of consumer.
//
// Observers (AddObserver) are exact. The shard goroutine calls each one
// at the transition and waits for it, so an observer sees every edge of
// a session in order and none is shed; every other in-order decision
// reaches its Advance. Closing a session makes every observer Forget it,
// and nothing the session still had queued reaches an observer
// afterwards. The respond engine is attached this way (respond.Attach).
// The price is that a slow observer slows the shard.
//
// Subscribers (Subscribe) are best-effort: the hub offers the event to
// every subscriber's buffered channel without ever blocking the
// detection path. A subscriber that falls behind its buffer loses the
// event — silently from the channel's point of view, but never
// invisibly: every shed event increments the
// memdos_stream_subscriber_dropped_total counter (HubStats.
// SubscriberDropped). Within one session, events that are delivered
// arrive in order; a dropped event therefore means a subscriber may miss
// a raise or a clear, never see them reordered. A subscriber that needs
// exactness must size its buffer for the worst-case burst (sessions × 2
// transitions covers any instant), reconcile against
// SessionInfo.AlarmActive, which is always current, or be an observer.

// Decode limits: a request may not exceed MaxIngestBytes on the wire or
// MaxIngestSamples decoded samples across all batches.
const (
	MaxIngestBytes   = 8 << 20
	MaxIngestSamples = 1 << 17
)

// IngestBatch carries consecutive samples of one session's PCM stream.
type IngestBatch struct {
	Session string `json:"session"`
	// Profile optionally asks the daemon to auto-open the session with
	// this detector profile on first contact.
	Profile string       `json:"profile,omitempty"`
	Samples []pcm.Sample `json:"samples"`
}

// IngestRequest is the body of POST /v1/ingest.
type IngestRequest struct {
	Batches []IngestBatch `json:"batches"`
}

// IngestResponse reports the per-request outcome.
type IngestResponse struct {
	// Accepted and Dropped count samples over all batches; Dropped are
	// shed by the queue policy (the request itself still succeeds).
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	// Errors lists per-batch failures (unknown session, bad profile);
	// other batches are still applied. memdosd lists at most 32 per
	// request on either ingest route, and stops the request there.
	Errors []string `json:"errors,omitempty"`
}

// DecodeIngest parses and validates an ingest request body.
func DecodeIngest(r io.Reader) (*IngestRequest, error) {
	req := new(IngestRequest)
	dec := json.NewDecoder(io.LimitReader(r, MaxIngestBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("stream: bad ingest request: %w", err)
	}
	// A second value (or any trailing token) means the body was not one
	// JSON document.
	if dec.More() {
		return nil, fmt.Errorf("stream: trailing data after ingest request")
	}
	if len(req.Batches) == 0 {
		return nil, fmt.Errorf("stream: ingest request has no batches")
	}
	total := 0
	for i := range req.Batches {
		b := &req.Batches[i]
		if err := pcm.ValidSessionID(b.Session); err != nil {
			return nil, fmt.Errorf("stream: batch %d: %w", i, err)
		}
		if len(b.Samples) == 0 {
			return nil, fmt.Errorf("stream: batch %d (%s) has no samples", i, b.Session)
		}
		total += len(b.Samples)
		if total > MaxIngestSamples {
			return nil, fmt.Errorf("stream: ingest request exceeds %d samples", MaxIngestSamples)
		}
	}
	return req, nil
}
