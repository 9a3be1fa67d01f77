package pcm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeBatchInto drives the network-facing binary frame decoder:
// arbitrary bodies must never panic, and every accepted frame must
// contain only validated samples that re-encode to a frame decoding
// back to the same batch (encode/decode are exact inverses on the
// accepted set).
func FuzzDecodeBatchInto(f *testing.F) {
	for _, s := range fuzzSeedBodies(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dst := make([]Sample, 0, 8)
		session, samples, err := DecodeBatchInto(dst, body)
		if err != nil {
			return
		}
		if len(samples) == 0 {
			t.Fatal("accepted frame with no samples")
		}
		if err := ValidSessionID(session); err != nil {
			t.Fatalf("accepted bad session %q: %v", session, err)
		}
		for i, s := range samples {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted invalid sample %d %+v: %v", i, s, err)
			}
		}
		// Re-encode and decode again: the batch must survive bit-exactly.
		wire, err := AppendBatch(nil, string(session), samples)
		if err != nil {
			t.Fatalf("accepted batch refuses to re-encode: %v", err)
		}
		session2, again, err := DecodeBatchInto(nil, wire[FramePrefixBytes:])
		if err != nil {
			t.Fatalf("re-encoded frame refuses to decode: %v", err)
		}
		if !bytes.Equal(session, session2) || len(again) != len(samples) {
			t.Fatalf("round trip changed shape: %q/%d -> %q/%d", session, len(samples), session2, len(again))
		}
		for i := range samples {
			if samples[i] != again[i] {
				t.Fatalf("round trip changed sample %d: %+v -> %+v", i, samples[i], again[i])
			}
		}
	})
}

// fuzzSeedBodies is the frame-body corpus both fuzz targets start from:
// well-formed, legacy and future frames and one of each kind of damage.
func fuzzSeedBodies(f *testing.F) [][]byte {
	// A well-formed 5-field frame, built through the real encoder.
	good, err := AppendBatch(nil, "vm-1", []Sample{
		{Time: 0.01, AccessNum: 120, MissNum: 8},
		{Time: 0.02, AccessNum: 117, MissNum: 9, BWBytes: 6.4e7, AvgLatency: 3.2e-8},
	})
	if err != nil {
		f.Fatal(err)
	}
	goodBody := good[FramePrefixBytes:]

	// A 3-field frame and a future 7-field frame, hand-rolled.
	handFrame := func(fields uint64, session string, vals ...float64) []byte {
		return rawFrame(fields, session, uint64(len(vals))/fields, words(vals...)...)
	}
	return [][]byte{
		goodBody,
		goodBody[:len(goodBody)-1], // truncated field
		goodBody[:1],               // version byte only
		goodBody[:7],               // truncated session
		append([]byte{BinaryVersion + 1}, goodBody[1:]...), // version skew
		append([]byte{0}, goodBody[1:]...),                 // version zero
		handFrame(3, "vm-old", 0.01, 120, 8),               // 3-field producer
		handFrame(7, "vm-new", 0.01, 120, 8, 1, 2, 3, 4),   // appended fields
		handFrame(5, "vm-1", 0.01, math.NaN(), 8, 0, 0),    // NaN counter
		handFrame(5, "vm-1", 0.01, -120, 8, 0, 0),          // negative counter
		handFrame(5, "a/b", 0.01, 120, 8, 0, 0),            // bad session byte
		{BinaryVersion},
		{BinaryVersion, 2},    // too few fields
		{BinaryVersion, 0xff}, // too many fields
		{},
		rawFrame(3, "vm-1", 1000, words(0.01)...), // a sample-count lie
		v1Body(), // a version-1 frame
	}
}

// FuzzCodecMatchesReference holds the codec to the plain one-field-at-a-
// time reference in binary_test.go. The input is read twice. As a frame
// body: same accept or reject, same error text, same session bytes, same
// sample bits, and an accepted batch re-encodes to the same frame on both
// sides. As raw float64 words, five to a sample: both encoders refuse
// with the same text or write the same bytes, with the DRAM pair as given
// and cleared.
func FuzzCodecMatchesReference(f *testing.F) {
	for _, s := range fuzzSeedBodies(f) {
		f.Add(s)
	}
	// Frames of every field count the codec meets, edge patterns in the
	// kept slots (-0, the smallest subnormal, the largest float) and
	// all-ones NaNs in the dropped ones; each whole, a byte short and a
	// byte long.
	edges := []uint64{1 << 63, 1, math.Float64bits(math.MaxFloat64), math.Float64bits(0.01)}
	for _, fieldCount := range []uint64{3, 4, 5, maxFieldCount} {
		var fields []uint64
		for i := uint64(0); i < 2*fieldCount; i++ {
			if k := i % fieldCount; k < binaryFieldCount {
				fields = append(fields, edges[(i+k)%uint64(len(edges))])
			} else {
				fields = append(fields, math.MaxUint64)
			}
		}
		body := rawFrame(fieldCount, "vm-edge", 2, fields...)
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(append(body, 0))
	}
	f.Add(rawFrame(5, "vm-edge", 1, words(0.01, 120, 8, 0, math.NaN())...))   // NaN latency
	f.Add(rawFrame(4, "vm-edge", 1, words(0.01, 120, 8, -1)...))              // negative bandwidth
	f.Add(rawFrame(16, "vm-lie", MaxFrameSamples, words(0.01, 120, 8, 0)...)) // 16-field count lie

	f.Fuzz(func(t *testing.T, data []byte) {
		if session, samples, err := decodeBoth(t, data); err == nil {
			if _, err := encodeBoth(t, string(session), samples); err != nil {
				t.Fatalf("accepted batch refuses to re-encode: %v", err)
			}
		}

		words := make([]float64, len(data)/8)
		for i := range words {
			words[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		batch := make([]Sample, len(words)/binaryFieldCount)
		for i := range batch {
			w := words[binaryFieldCount*i:]
			batch[i] = Sample{w[0], w[1], w[2], w[3], w[4]}
		}
		roundTrip(t, batch)
		for i := range batch {
			batch[i].BWBytes, batch[i].AvgLatency = 0, 0
		}
		roundTrip(t, batch)
	})
}

// roundTrip encodes batch with the codec and the reference and, when
// both accept it, decodes the frame with both and wants it back bit for
// bit.
func roundTrip(t *testing.T, batch []Sample) {
	t.Helper()
	frame, err := encodeBoth(t, "vm-fuzz", batch)
	if err != nil {
		return
	}
	_, out, err := decodeBoth(t, frame[FramePrefixBytes:])
	if err != nil || len(out) != len(batch) {
		t.Fatalf("encoded frame decodes to %d of %d samples: %v", len(out), len(batch), err)
	}
	for i := range batch {
		if !sameBits(out[i], batch[i]) {
			t.Fatalf("sample %d: %+v came back as %+v", i, batch[i], out[i])
		}
	}
}
