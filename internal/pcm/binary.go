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
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
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

// The field varints are coded a word at a time. A uvarint is a run of
// bytes carrying 7 value bits each, low group first, every byte but the
// last with its top bit set; read as one little-endian uint64, eight of
// them are eight 7-bit groups with a continuation bit above each, and
// the groups close up into 56 contiguous bits in three mask-and-shift
// steps (pack7) — or open out again (spread7) — instead of eight trips
// round a shift-and-or loop. Simulated counters and k*0.01 timestamps
// are full-mantissa floats, so most fields are 9 or 10 bytes long and
// the byte loops were half of a saturated ingest's CPU (EXPERIMENTS.md
// "Spending the budget"). The bytes on the wire are exactly
// encoding/binary's, and so is the set of byte strings accepted.
const (
	contBits = 0x8080808080808080 // the continuation bit of eight varint bytes
	// maxFieldBytes is the longest field varint (a full 64-bit pattern),
	// and therefore what AppendBatch reserves per field.
	maxFieldBytes = binary.MaxVarintLen64
)

// pack7 closes up the eight 7-bit groups of x, one per byte with the
// continuation bits already cleared, into the low 56 bits.
func pack7(x uint64) uint64 {
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	return x&0x000000000fffffff | x&0x0fffffff00000000>>4
}

// spread7 is pack7's inverse: the low 56 bits of v as eight 7-bit
// groups, one per byte, continuation bits clear.
func spread7(v uint64) uint64 {
	v = v&0x000000000fffffff | v&0x00fffffff0000000<<4
	v = v&0x00003fff00003fff | v&0x0fffc0000fffc000<<2
	return v&0x007f007f007f007f | v&0x3f803f803f803f80<<1
}

// AppendBatch appends one complete frame — length prefix included — for
// session's samples to dst and returns the extended slice. Room for the
// largest frame the batch could need (50 bytes a sample) is reserved
// once, up front, so it allocates only when dst lacks that capacity and
// a producer reusing its buffer encodes at zero allocations steady
// state; as with append, bytes of dst's array past the returned length
// are scratch. Samples must pass Validate and the session name must
// satisfy the same rules the stream package enforces; refusing here
// keeps unsendable frames from ever reaching a socket.
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
		if !samples[i].wellFormed() {
			return dst, fmt.Errorf("pcm: sample %d: %w", i, samples[i].Validate())
		}
	}
	start := len(dst)
	fields := len(samples) * binaryFieldCount * maxFieldBytes
	dst = slices.Grow(dst, FramePrefixBytes+1+3*binary.MaxVarintLen64+len(session)+fields)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, BinaryVersion)
	dst = binary.AppendUvarint(dst, binaryFieldCount)
	dst = binary.AppendUvarint(dst, uint64(len(session)))
	dst = append(dst, session...)
	dst = binary.AppendUvarint(dst, uint64(len(samples)))
	n := len(dst)
	n += encodeSamples(dst[n:n+fields], samples)
	dst = dst[:n]
	body := n - start - FramePrefixBytes
	if body > MaxFrameBytes {
		return dst[:start], fmt.Errorf("pcm: frame body %d bytes exceeds %d", body, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// encodeSamples writes the samples' field varints to the front of dst,
// which must have maxFieldBytes of room for every field, and returns
// how many bytes they took. It is a function of its own, like
// decodeSamples, to keep the loop's few values in registers: inlined
// among the header's live values either loop spills on every field and
// runs a third slower.
func encodeSamples(dst []byte, samples []Sample) int {
	n := 0
	for i := range samples {
		s := &samples[i]
		// Byte-reversed bit patterns (see the package comment for why).
		for _, f := range [binaryFieldCount]float64{s.Time, s.AccessNum, s.MissNum, s.BWBytes, s.AvgLatency} {
			v := bits.ReverseBytes64(math.Float64bits(f))
			if v < 0x80 { // zero, the usual DRAM pair
				dst[n] = byte(v)
				n++
				continue
			}
			// The field's first eight bytes go down as one word whatever
			// its length: the bytes past its end are the next field's to
			// overwrite.
			p := dst[n : n+maxFieldBytes]
			if v>>56 == 0 {
				// Up to eight bytes: continuation bits below the last.
				size := (bits.Len64(v) + 6) / 7
				binary.LittleEndian.PutUint64(p, spread7(v)|contBits&(uint64(1)<<(8*size-8)-1))
				n += size
				continue
			}
			// Nine or ten: eight continued groups, bits 56-62, and bit
			// 63 in a tenth byte when it is set.
			binary.LittleEndian.PutUint64(p, spread7(v)|contBits)
			top := byte(v >> 63)
			p[8] = byte(v>>56)&0x7f | top<<7
			p[9] = top
			n += 9 + int(top)
		}
	}
	return n
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
	// Room for the frame's samples is made once, not per sample. A sample
	// is at least fieldCount bytes, so a hostile count reserves no more
	// than the body could hold; a body that short then fails below.
	room := int(min(count, uint64(len(p))/fieldCount))
	samples = slices.Grow(dst, room)[:len(dst)+room]
	p, bad, err := decodeSamples(samples[len(dst):], p, int(fieldCount))
	if err == nil && uint64(room) < count {
		bad, err = room, errFieldVarint
	}
	if err != nil {
		return nil, dst, fmt.Errorf("pcm: sample %d: %w", bad, err)
	}
	if len(p) != 0 {
		return nil, dst, fmt.Errorf("pcm: %d trailing bytes after frame samples", len(p))
	}
	return session, samples, nil
}

// decodeSamples fills out with samples of fieldCount field varints each
// from the front of p and returns what is left of p. On a refusal bad is
// the index of the offending sample. One loop serves every fieldCount:
// field k's bit pattern lands in v[k], slots a legacy producer never
// wrote stay zero, and slots past the fifth — appended by a newer
// producer — are decoded to advance p and dropped.
func decodeSamples(out []Sample, p []byte, fieldCount int) (rest []byte, bad int, err error) {
	var v [maxFieldCount]uint64
	for i := range out {
		for k := 0; k < fieldCount; k++ {
			var size int
			switch {
			case len(p) > 0 && p[0] < 0x80: // zero, the usual DRAM pair
				v[k], size = uint64(p[0]), 1
			case len(p) >= maxFieldBytes:
				x := binary.LittleEndian.Uint64(p)
				if stop := ^x & contBits; stop != 0 {
					// The lowest clear continuation bit ends the varint;
					// stop^(stop-1) keeps the bytes up to and including it.
					size = (bits.TrailingZeros64(stop) + 1) / 8
					v[k] = pack7(x & (stop ^ (stop - 1)) &^ contBits)
					break
				}
				// Nine or ten bytes. encoding/binary's overflow rule: a
				// tenth byte may carry bit 63 and nothing else.
				more := p[8] >> 7
				last := p[9] & -more
				if last > 1 {
					return p, i, errFieldVarint
				}
				v[k] = pack7(x&^contBits) | uint64(p[8]&0x7f)<<56 | uint64(last)<<63
				size = 9 + int(more)
			default:
				// Inside the last nine bytes of the body a word load
				// would overrun: the byte loop finishes the frame.
				if v[k], size = binary.Uvarint(p); size <= 0 {
					return p, i, errFieldVarint
				}
			}
			p = p[size:]
		}
		s := &out[i]
		s.Time = floatField(v[0])
		s.AccessNum = floatField(v[1])
		s.MissNum = floatField(v[2])
		s.BWBytes = floatField(v[3])
		s.AvgLatency = floatField(v[4])
		if !s.wellFormed() {
			return p, i, s.Validate()
		}
	}
	return p, 0, nil
}

var errFieldVarint = errors.New("pcm: truncated or overlong field varint")

// decodeUvarint reads one of the three header uvarints, naming it in
// errors.
func decodeUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("pcm: truncated or overlong %s varint", what)
	}
	return v, p[n:], nil
}

// floatField undoes the encoder's byte reversal.
func floatField(v uint64) float64 {
	return math.Float64frombits(bits.ReverseBytes64(v))
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
