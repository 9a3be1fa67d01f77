package pcm

// This file is the compact binary wire codec for Sample batches: the
// fleet-scale alternative to the JSON ingest format in json.go. One
// *frame* carries one session's batch:
//
//	frame   := length(4 bytes, little-endian uint32 of the body size) body
//	body    := version(1 byte)
//	           fieldCount(uvarint)
//	           sessionLen(uvarint) session(bytes)
//	           sampleCount(uvarint)
//	           sampleCount x fieldCount field(uvarint)
//	field   := uvarint( bits.ReverseBytes64( math.Float64bits(value) ) )
//
// Fields are the Sample struct members in declaration order: Time,
// AccessNum, MissNum, BWBytes, AvgLatency. Byte-reversing the IEEE-754
// bit pattern moves the sign/exponent bytes to the low end and the
// (usually zero) mantissa tail to the high end, so typical counter
// values — small-magnitude floats with short mantissas — encode in 2-4
// varint bytes instead of 8, losslessly.
//
// Evolution rules (see DESIGN.md "Binary ingest wire format"):
//
//   - New fields are only ever APPENDED to the sample field list; the
//     writer's fieldCount declares how many it wrote.
//   - A reader decodes the fields it knows (min(fieldCount, 5) today)
//     and skips the rest, so old readers accept new producers.
//   - fieldCount >= 3 is required: Time/AccessNum/MissNum predate the
//     DRAM counters, and 3-field frames from legacy producers decode
//     with BWBytes/AvgLatency zero — exactly like the 3-field JSON form.
//   - The version byte only changes when the frame *layout* changes
//     (something appending fields cannot express); readers reject
//     versions they do not know outright.
//
// The decoder is strict the same way the JSON path is: oversized
// lengths, truncated bodies, trailing bytes, non-finite or negative
// counters and malformed session names are all errors, never panics
// (FuzzDecodeBatchInto enforces this).

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

const (
	// BinaryVersion is the frame layout version this package writes.
	BinaryVersion = 1
	// FramePrefixBytes is the size of the length prefix in front of
	// every frame body.
	FramePrefixBytes = 4
	// MaxFrameBytes bounds one frame body on the wire; FrameReader and
	// DecodeBatchInto reject anything larger before buffering it.
	MaxFrameBytes = 4 << 20
	// MaxFrameSamples bounds the samples in one frame.
	MaxFrameSamples = 1 << 16
	// binaryFieldCount is how many fields per sample version-1 writers
	// emit (the full Sample struct).
	binaryFieldCount = 5
	// maxFieldCount caps the declared per-sample field count a decoder
	// will skip past: generous headroom for future appended fields,
	// tight enough that a hostile count cannot make decode quadratic.
	maxFieldCount = 16
	// maxFrameSession mirrors the stream package's session-id bound.
	maxFrameSession = 128
)

// AppendBatch appends one complete frame — length prefix included — for
// session's samples to dst and returns the extended slice. It allocates
// only when dst lacks capacity, so a producer reusing its buffer
// encodes at zero allocations steady state. Samples must pass Validate
// and the session name must satisfy the same rules the stream package
// enforces; refusing here keeps unsendable frames from ever reaching a
// socket.
//
//memdos:hotpath
func AppendBatch(dst []byte, session string, samples []Sample) ([]byte, error) {
	if err := validFrameSession(session); err != nil {
		return dst, err
	}
	if len(samples) == 0 {
		return dst, fmt.Errorf("pcm: empty sample batch")
	}
	if len(samples) > MaxFrameSamples {
		return dst, fmt.Errorf("pcm: batch of %d samples exceeds %d per frame", len(samples), MaxFrameSamples)
	}
	for i := range samples {
		if err := samples[i].Validate(); err != nil {
			return dst, fmt.Errorf("pcm: sample %d: %w", i, err)
		}
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, BinaryVersion)
	dst = binary.AppendUvarint(dst, binaryFieldCount)
	dst = binary.AppendUvarint(dst, uint64(len(session)))
	dst = append(dst, session...)
	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	for i := range samples {
		s := &samples[i]
		dst = appendFloatField(dst, s.Time)
		dst = appendFloatField(dst, s.AccessNum)
		dst = appendFloatField(dst, s.MissNum)
		dst = appendFloatField(dst, s.BWBytes)
		dst = appendFloatField(dst, s.AvgLatency)
	}
	body := len(dst) - start - FramePrefixBytes
	if body > MaxFrameBytes {
		return dst[:start], fmt.Errorf("pcm: frame body %d bytes exceeds %d", body, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// appendFloatField varint-encodes one float64 losslessly (see the
// package comment for why the bit pattern is byte-reversed first).
func appendFloatField(dst []byte, v float64) []byte {
	return binary.AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(v)))
}

// DecodeBatchInto decodes one frame *body* (the bytes after the length
// prefix, e.g. as returned by FrameReader.Next). Samples are appended
// to dst — pass a slice with spare capacity (typically the previous
// call's result re-sliced to [:0]) and the decode allocates nothing.
// The returned session aliases body and is only valid while body is;
// callers that outlive the buffer must copy it.
//
//memdos:hotpath
func DecodeBatchInto(dst []Sample, body []byte) (session []byte, samples []Sample, err error) {
	if len(body) == 0 {
		return nil, dst, fmt.Errorf("pcm: empty frame body")
	}
	if body[0] != BinaryVersion {
		return nil, dst, fmt.Errorf("pcm: unknown frame version %d (reader supports %d)", body[0], BinaryVersion)
	}
	p := body[1:]
	fieldCount, p, err := decodeUvarint(p, "field count")
	if err != nil {
		return nil, dst, err
	}
	if fieldCount < 3 || fieldCount > maxFieldCount {
		return nil, dst, fmt.Errorf("pcm: frame declares %d fields per sample (want 3-%d)", fieldCount, maxFieldCount)
	}
	sessLen, p, err := decodeUvarint(p, "session length")
	if err != nil {
		return nil, dst, err
	}
	if sessLen == 0 || sessLen > maxFrameSession {
		return nil, dst, fmt.Errorf("pcm: frame session length %d (want 1-%d)", sessLen, maxFrameSession)
	}
	if uint64(len(p)) < sessLen {
		return nil, dst, fmt.Errorf("pcm: truncated frame session")
	}
	session, p = p[:sessLen], p[sessLen:]
	if err := validFrameSessionBytes(session); err != nil {
		return nil, dst, err
	}
	count, p, err := decodeUvarint(p, "sample count")
	if err != nil {
		return nil, dst, err
	}
	if count == 0 || count > MaxFrameSamples {
		return nil, dst, fmt.Errorf("pcm: frame sample count %d (want 1-%d)", count, MaxFrameSamples)
	}
	samples = dst
	for i := uint64(0); i < count; i++ {
		var s Sample
		for f := uint64(0); f < fieldCount; f++ {
			var v float64
			v, p, err = decodeFloatField(p)
			if err != nil {
				return nil, dst, fmt.Errorf("pcm: sample %d: %w", i, err)
			}
			switch f {
			case 0:
				s.Time = v
			case 1:
				s.AccessNum = v
			case 2:
				s.MissNum = v
			case 3:
				s.BWBytes = v
			case 4:
				s.AvgLatency = v
				// Fields beyond the fifth were appended by a newer
				// producer: decoded (to advance p) and dropped.
			}
		}
		if err := s.Validate(); err != nil {
			return nil, dst, fmt.Errorf("pcm: sample %d: %w", i, err)
		}
		samples = append(samples, s)
	}
	if len(p) != 0 {
		return nil, dst, fmt.Errorf("pcm: %d trailing bytes after frame samples", len(p))
	}
	return session, samples, nil
}

// decodeUvarint reads one uvarint, naming the field in errors.
func decodeUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("pcm: truncated or overlong %s varint", what)
	}
	return v, p[n:], nil
}

// decodeFloatField reverses appendFloatField.
func decodeFloatField(p []byte) (float64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("pcm: truncated or overlong field varint")
	}
	return math.Float64frombits(bits.ReverseBytes64(v)), p[n:], nil
}

// validFrameSession mirrors the stream package's session-id rules so a
// frame that encodes cannot be refused downstream: 1-128 bytes, no
// control characters, spaces, '/', '"' or DEL (the id is used as a map
// key, URL path element and metric label).
func validFrameSession(id string) error {
	if id == "" || len(id) > maxFrameSession {
		return fmt.Errorf("pcm: frame session id must be 1-%d bytes", maxFrameSession)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x21 || c == 0x7f || c == '/' || c == '"' {
			return fmt.Errorf("pcm: frame session id %q contains forbidden byte %q", id, c)
		}
	}
	return nil
}

// validFrameSessionBytes is validFrameSession for a decoded byte view,
// kept separate so the hot decode path never converts to string.
func validFrameSessionBytes(id []byte) error {
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x21 || c == 0x7f || c == '/' || c == '"' {
			return fmt.Errorf("pcm: frame session id %q contains forbidden byte %q", id, c)
		}
	}
	return nil
}

// FrameReader reads length-prefixed frames off a byte stream (a
// persistent ingest connection) into one internal buffer that is reused
// across frames: steady state, Next performs no allocations. The
// returned body is valid only until the next call.
type FrameReader struct {
	r   io.Reader
	hdr [FramePrefixBytes]byte
	buf []byte
	max int
}

// NewFrameReader wraps r; maxFrame <= 0 means MaxFrameBytes.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 || maxFrame > MaxFrameBytes {
		maxFrame = MaxFrameBytes
	}
	return &FrameReader{r: r, max: maxFrame}
}

// Reset points the reader at a new stream, keeping the grown buffer.
func (fr *FrameReader) Reset(r io.Reader) { fr.r = r }

// Next returns the next frame body. A clean end of stream — EOF exactly
// on a frame boundary — returns io.EOF; EOF inside a frame is an error,
// so a producer that dies mid-frame is never mistaken for a clean close.
//
//memdos:hotpath
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("pcm: truncated frame prefix: %w", err)
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	if n == 0 || n > fr.max {
		return nil, fmt.Errorf("pcm: frame body of %d bytes (want 1-%d)", n, fr.max)
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n) //memdos:ignore hotalloc grow-once frame buffer: capacity sticks to the largest frame seen; TestDecodeBatchIntoZeroAlloc pins the warmed steady state
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, fmt.Errorf("pcm: truncated frame body: %w", err)
	}
	return body, nil
}
