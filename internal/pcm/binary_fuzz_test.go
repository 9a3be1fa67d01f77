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
		if err := validFrameSession(string(session)); err != nil {
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

	// A legacy 3-field frame and a future 7-field frame, hand-rolled.
	handFrame := func(fields uint64, session string, vals ...float64) []byte {
		raw := make([][]byte, len(vals))
		for i, v := range vals {
			raw[i] = fieldBytes(v)
		}
		return rawFrame(fields, session, uint64(len(vals))/fields, raw...)
	}
	seeds := [][]byte{
		goodBody,
		goodBody[:len(goodBody)-1],                       // truncated field
		goodBody[:1],                                     // version byte only
		goodBody[:7],                                     // truncated session
		append([]byte{2}, goodBody[1:]...),               // version skew
		append([]byte{0}, goodBody[1:]...),               // version zero
		handFrame(3, "vm-old", 0.01, 120, 8),             // legacy 3-field producer
		handFrame(7, "vm-new", 0.01, 120, 8, 1, 2, 3, 4), // appended fields
		handFrame(5, "vm-1", 0.01, math.NaN(), 8, 0, 0),  // NaN counter
		handFrame(5, "vm-1", 0.01, -120, 8, 0, 0),        // negative counter
		handFrame(5, "a/b", 0.01, 120, 8, 0, 0),          // bad session byte
		{BinaryVersion},
		{BinaryVersion, 2},    // too few fields
		{BinaryVersion, 0xff}, // too many fields
		{},
	}
	// A sample-count lie: header says 1000 samples, body has one field.
	lie := rawFrame(3, "vm-1", 1000, fieldBytes(0.01))
	return append(seeds, lie)
}

// FuzzCodecMatchesReference holds the word-at-a-time codec to the
// byte-at-a-time loops it replaced (binary_test.go keeps them as the
// reference). The input is read twice. As a frame body: same accept or
// reject, same error text, same session bytes, same sample bits, and an
// accepted batch re-encodes to the same frame on both sides. As raw
// float64 words, five to a sample: both encoders refuse with the same
// text or write the same bytes.
func FuzzCodecMatchesReference(f *testing.F) {
	for _, s := range fuzzSeedBodies(f) {
		f.Add(s)
	}
	// Field varints of every length, met by the word loads and, at the
	// end of the body, by the byte loop; the forms at the edge of 64 bits.
	var every [][]byte
	for size := 1; size <= binary.MaxVarintLen64; size++ {
		every = append(every, binary.AppendUvarint(nil, patternOfSize(size)))
	}
	f.Add(rawFrame(uint64(len(every)), "vm-len", 1, every...))
	f.Add(rawFrame(3, "vm-len", 2, every[9], every[8], every[7], every[0], every[1], every[9]))
	ff9 := bytes.Repeat([]byte{0xff}, 9)
	for _, last := range []byte{0x00, 0x01, 0x02, 0x7f, 0x80, 0xff} {
		field := append(append([]byte(nil), ff9...), last)
		f.Add(rawFrame(6, "vm-edge", 1, append(zeroFields(5), field)...))
		f.Add(rawFrame(16, "vm-edge", 1, append(append(zeroFields(5), field), zeroFields(10)...)...))
	}
	f.Add(rawFrame(3, "vm-nonmin", 1, []byte{0x80, 0x00}, []byte{0x81, 0x80, 0x00}, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}))

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
	})
}
