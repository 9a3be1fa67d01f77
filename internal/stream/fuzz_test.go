package stream

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"memdos/internal/pcm"
)

// FuzzDecodeIngest drives the network-facing ingest decoder: arbitrary
// bodies must never panic, and every accepted request must contain only
// validated, re-encodable samples.
func FuzzDecodeIngest(f *testing.F) {
	seeds := []string{
		`{"batches":[{"session":"vm-1","samples":[{"t":0.01,"access":120,"miss":8}]}]}`,
		`{"batches":[{"session":"vm-1","profile":"sdsb","samples":[{"t":1,"access":0,"miss":0}]}]}`,
		`{"batches":[]}`,
		`{"batches":[{"session":"","samples":[{"t":1,"access":1,"miss":1}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":-5,"miss":1}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1e999,"miss":1}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":NaN,"access":1,"miss":1}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1,"miss":1,"extra":2}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1,"miss":1,"bw":6.4e7,"lat":3.2e-8}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1,"miss":1,"bw":-1}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1,"miss":1,"lat":1e999}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1,"miss":1,"bw":NaN}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1,"miss":1,"lat":0}]}]}`,
		`{"batches":[{"session":"vm-1","samples":[{"t":1,"access":1,"miss":1}]}]}trailing`,
		`{"unknown":true}`,
		`[]`, `null`, `"x"`, `{`, ``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeIngest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.Batches) == 0 {
			t.Fatal("accepted request with no batches")
		}
		total := 0
		for _, b := range req.Batches {
			if pcm.ValidSessionID(b.Session) != nil {
				t.Fatalf("accepted bad session id %q", b.Session)
			}
			if len(b.Samples) == 0 {
				t.Fatal("accepted empty batch")
			}
			total += len(b.Samples)
			for _, s := range b.Samples {
				// Accepted samples must be finite and non-negative —
				// re-encoding must therefore succeed.
				if err := s.Validate(); err != nil {
					t.Fatalf("accepted invalid sample %+v: %v", s, err)
				}
				if _, err := json.Marshal(s); err != nil {
					t.Fatalf("accepted sample fails re-encoding: %v", err)
				}
			}
		}
		if total > MaxIngestSamples {
			t.Fatalf("accepted %d samples over the cap", total)
		}
		// Malformed JSON variants derived from accepted input must not
		// panic either.
		DecodeIngest(strings.NewReader(string(data) + "}"))
	})
}
