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
//	           sampleCount x fieldCount field
//	field   := math.Float64bits(value) as 8 little-endian bytes
//
// Fields are the Sample struct members in declaration order: Time,
// AccessNum, MissNum, BWBytes, AvgLatency. They are fixed width because
// the values served are full-mantissa floats (k*0.01 timestamps,
// simulated counters), which a variable-length form codes in more than
// 8 bytes and at a higher cost per field (DESIGN.md §7b). The writer
// drops the DRAM pair instead: a batch whose BWBytes and AvgLatency are
// all +0 goes out as a 3-field frame, like the JSON form's elision of a
// zero pair.
//
// Evolution rules (see DESIGN.md §7b):
//
//   - New fields are only ever APPENDED to the sample field list; the
//     writer's fieldCount declares how many it wrote.
//   - A reader decodes the fields it knows (min(fieldCount, 5) today)
//     and skips the rest, so old readers accept new producers.
//   - fieldCount >= 3 is required: Time/AccessNum/MissNum predate the
//     DRAM counters, and 3-field frames decode with BWBytes/AvgLatency
//     zero — exactly like the 3-field JSON form.
//   - The version byte only changes when the frame *layout* changes
//     (something appending fields cannot express); readers reject
//     versions they do not know outright.
//
// The decoder is strict the same way the JSON path is: oversized
// lengths, truncated bodies, trailing bytes, non-finite or negative
// counters and malformed session names are all errors, never panics
// (FuzzDecodeBatchInto enforces this).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

const (
	// BinaryVersion is the frame layout version this package writes and
	// the only one it reads.
	BinaryVersion = 2
	// FramePrefixBytes is the size of the length prefix in front of
	// every frame body.
	FramePrefixBytes = 4
	// MaxFrameBytes bounds one frame body on the wire; FrameReader and
	// DecodeBatchInto reject anything larger before buffering it.
	MaxFrameBytes = 4 << 20
	// MaxFrameSamples bounds the samples in one frame.
	MaxFrameSamples = 1 << 16
	// maxSessionBytes bounds a session id (see ValidSessionID).
	maxSessionBytes = 128
	// binaryFieldCount is how many fields per sample the Sample struct
	// has, and so the most this reader decodes.
	binaryFieldCount = 5
	// maxFieldCount caps the declared per-sample field count a decoder
	// will skip past: generous headroom for future appended fields.
	maxFieldCount = 16
	// fieldSize is the wire size of one field.
	fieldSize = 8
	// maxHeaderBytes bounds a body's bytes ahead of its fields: the
	// version byte, three uvarints and the session.
	maxHeaderBytes = 1 + 3*binary.MaxVarintLen64 + maxSessionBytes
)

// The largest frame AppendBatch can write fits MaxFrameBytes, so it
// never has to refuse one: the constant is negative, and does not
// compile, if the bounds above ever say otherwise.
const _ uint = MaxFrameBytes - (maxHeaderBytes + MaxFrameSamples*binaryFieldCount*fieldSize)

// ValidSessionID holds id to the one session-id rule of the serving
// path, shared by both wire codecs and the hub: 1-128 bytes, no control
// characters, spaces, '/', '"' or DEL (the id is a map key, URL path
// element and metric label). The error names no package; callers put
// their own prefix in front. It takes the decoder's byte view as it is,
// so the hot decode path never converts to string.
func ValidSessionID[T string | []byte](id T) error {
	if len(id) == 0 || len(id) > maxSessionBytes {
		return fmt.Errorf("session id must be 1-%d bytes", maxSessionBytes)
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c < 0x21 || c == 0x7f || c == '/' || c == '"' {
			return fmt.Errorf("session id %q contains forbidden byte %q", id, c)
		}
	}
	return nil
}

// AppendBatch appends one complete frame — length prefix included — for
// session's samples to dst and returns the extended slice. The frame
// carries 3 fields a sample when every BWBytes and AvgLatency is +0 and
// 5 otherwise; a -0 keeps the pair, so every sample decodes bit for bit.
// Room for the frame is reserved once, up front, so it allocates only
// when dst lacks that capacity and a producer reusing its buffer encodes
// at zero allocations steady state; as with append, bytes of dst's array
// past the returned length are scratch. Samples must pass Validate and
// the session name ValidSessionID; refusing here keeps unsendable frames
// from ever reaching a socket.
//
//memdos:hotpath
func AppendBatch(dst []byte, session string, samples []Sample) ([]byte, error) {
	if err := ValidSessionID(session); err != nil {
		return dst, fmt.Errorf("pcm: frame %w", err)
	}
	if len(samples) == 0 {
		return dst, fmt.Errorf("pcm: empty sample batch")
	}
	if len(samples) > MaxFrameSamples {
		return dst, fmt.Errorf("pcm: batch of %d samples exceeds %d per frame", len(samples), MaxFrameSamples)
	}
	var dram uint64
	for i := range samples {
		s := &samples[i]
		if !s.wellFormed() {
			return dst, fmt.Errorf("pcm: sample %d: %w", i, s.Validate())
		}
		dram |= math.Float64bits(s.BWBytes) | math.Float64bits(s.AvgLatency)
	}
	fieldCount := 3
	if dram != 0 {
		fieldCount = binaryFieldCount
	}
	fields := len(samples) * fieldCount * fieldSize
	start := len(dst)
	dst = slices.Grow(dst, FramePrefixBytes+maxHeaderBytes+fields)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, BinaryVersion)
	dst = binary.AppendUvarint(dst, uint64(fieldCount))
	dst = binary.AppendUvarint(dst, uint64(len(session)))
	dst = append(dst, session...)
	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	n := len(dst)
	dst = dst[:n+fields]
	encodeSamples(dst[n:], samples, fieldCount)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-FramePrefixBytes))
	return dst, nil
}

// encodeSamples writes the samples' first fieldCount (3 or 5) fields to
// dst, which holds exactly that many.
func encodeSamples(dst []byte, samples []Sample, fieldCount int) {
	stride := fieldCount * fieldSize
	for i := range samples {
		s := &samples[i]
		p := dst[i*stride:][:stride]
		binary.LittleEndian.PutUint64(p[0:], math.Float64bits(s.Time))
		binary.LittleEndian.PutUint64(p[8:], math.Float64bits(s.AccessNum))
		binary.LittleEndian.PutUint64(p[16:], math.Float64bits(s.MissNum))
		if fieldCount == binaryFieldCount {
			binary.LittleEndian.PutUint64(p[24:], math.Float64bits(s.BWBytes))
			binary.LittleEndian.PutUint64(p[32:], math.Float64bits(s.AvgLatency))
		}
	}
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
	if sessLen == 0 || sessLen > maxSessionBytes {
		return nil, dst, fmt.Errorf("pcm: frame session length %d (want 1-%d)", sessLen, maxSessionBytes)
	}
	if uint64(len(p)) < sessLen {
		return nil, dst, fmt.Errorf("pcm: truncated frame session")
	}
	session, p = p[:sessLen], p[sessLen:]
	if err := ValidSessionID(session); err != nil {
		return nil, dst, fmt.Errorf("pcm: frame %w", err)
	}
	count, p, err := decodeUvarint(p, "sample count")
	if err != nil {
		return nil, dst, err
	}
	if count == 0 || count > MaxFrameSamples {
		return nil, dst, fmt.Errorf("pcm: frame sample count %d (want 1-%d)", count, MaxFrameSamples)
	}
	// The fields are fixed width, so the body's size is known before any
	// room is made: a hostile count reserves nothing.
	switch want := count * fieldCount * fieldSize; {
	case uint64(len(p)) < want:
		return nil, dst, fmt.Errorf("pcm: truncated frame: %d samples of %d fields need %d bytes, %d left", count, fieldCount, want, len(p))
	case uint64(len(p)) > want:
		return nil, dst, fmt.Errorf("pcm: %d trailing bytes after frame samples", uint64(len(p))-want)
	}
	samples = slices.Grow(dst, int(count))[:len(dst)+int(count)]
	if bad, err := decodeSamples(samples[len(dst):], p, int(fieldCount)); err != nil {
		return nil, dst, fmt.Errorf("pcm: sample %d: %w", bad, err)
	}
	return session, samples, nil
}

// decodeSamples fills out from p, which holds exactly fieldCount fields
// for each of its samples. Fields past the fifth — appended by a newer
// producer — are skipped; a 3- or 4-field frame leaves the missing DRAM
// fields zero. On a refusal bad is the index of the offending sample.
func decodeSamples(out []Sample, p []byte, fieldCount int) (bad int, err error) {
	stride := fieldCount * fieldSize
	for i := range out {
		f := p[i*stride:][:stride]
		s := &out[i]
		s.Time = math.Float64frombits(binary.LittleEndian.Uint64(f[0:]))
		s.AccessNum = math.Float64frombits(binary.LittleEndian.Uint64(f[8:]))
		s.MissNum = math.Float64frombits(binary.LittleEndian.Uint64(f[16:]))
		s.BWBytes, s.AvgLatency = 0, 0
		if fieldCount > 3 {
			s.BWBytes = math.Float64frombits(binary.LittleEndian.Uint64(f[24:]))
		}
		if fieldCount > 4 {
			s.AvgLatency = math.Float64frombits(binary.LittleEndian.Uint64(f[32:]))
		}
		if !s.wellFormed() {
			return i, s.Validate()
		}
	}
	return 0, nil
}

// decodeUvarint reads one of the three header uvarints, naming it in
// errors.
func decodeUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("pcm: truncated or overlong %s varint", what)
	}
	return v, p[n:], nil
}

// FrameReadBuffer is the size of FrameReader's read buffer: the most
// wire bytes it takes off the stream in one read, and so the most frames'
// worth a caller that drains whatever is Ready holds at once.
const FrameReadBuffer = 32 << 10

// FrameReader reads length-prefixed frames off a byte stream (a
// persistent ingest connection) through one read buffer. A frame that
// fits the buffer is returned in place, as a slice of it; a larger one is
// copied into a second buffer that is reused across frames. Steady
// state, Next performs no allocations. The returned body is valid only
// until the next call.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
	max int
}

// NewFrameReader wraps r; maxFrame <= 0 means MaxFrameBytes.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 || maxFrame > MaxFrameBytes {
		maxFrame = MaxFrameBytes
	}
	return &FrameReader{br: bufio.NewReaderSize(r, FrameReadBuffer), max: maxFrame}
}

// Reset points the reader at a new stream, dropping whatever was
// buffered from the old one and keeping the buffers.
func (fr *FrameReader) Reset(r io.Reader) { fr.br.Reset(r) }

// Ready reports whether the next frame is already whole in the read
// buffer, so that Next will return it without reading from the stream.
// A caller that must act on what it has before the stream can block
// (the ingest handler hands its decoded frames to the hub) checks Ready
// before each Next.
func (fr *FrameReader) Ready() bool {
	have := fr.br.Buffered()
	if have < FramePrefixBytes {
		return false
	}
	hdr, _ := fr.br.Peek(FramePrefixBytes)
	return uint64(have-FramePrefixBytes) >= uint64(binary.LittleEndian.Uint32(hdr))
}

// Next returns the next frame body. A clean end of stream — EOF exactly
// on a frame boundary — returns io.EOF; EOF inside a frame is an error,
// so a producer that dies mid-frame is never mistaken for a clean close.
//
//memdos:hotpath
func (fr *FrameReader) Next() ([]byte, error) {
	hdr, err := fr.br.Peek(FramePrefixBytes)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return nil, fmt.Errorf("pcm: truncated frame prefix: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n == 0 || n > fr.max {
		return nil, fmt.Errorf("pcm: frame body of %d bytes (want 1-%d)", n, fr.max)
	}
	// Discarding bytes a Peek has returned cannot fail.
	if FramePrefixBytes+n <= fr.br.Size() {
		// Peek then Discard: the body stays where the read put it.
		frame, err := fr.br.Peek(FramePrefixBytes + n)
		if err != nil {
			return nil, truncatedBody(err)
		}
		_, _ = fr.br.Discard(FramePrefixBytes + n)
		return frame[FramePrefixBytes:], nil
	}
	_, _ = fr.br.Discard(FramePrefixBytes)
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return nil, truncatedBody(err)
	}
	return body, nil
}

// truncatedBody names a read that ended inside a frame body.
func truncatedBody(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("pcm: truncated frame body: %w", err)
}
