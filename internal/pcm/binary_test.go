package pcm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// randomBatch builds n valid samples with the full counter set, mixing
// integral counters with full-mantissa floats and samples with and
// without the DRAM pair.
func randomBatch(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, n)
	t := rng.Float64()
	for i := range out {
		t += 0.01
		s := Sample{
			Time:      t,
			AccessNum: float64(rng.Intn(1_000_000)),
			MissNum:   float64(rng.Intn(100_000)),
		}
		if rng.Intn(2) == 0 {
			s.AccessNum += rng.Float64() // full-mantissa path
			s.MissNum *= rng.Float64()
		}
		if rng.Intn(3) == 0 {
			s.BWBytes = float64(rng.Intn(1 << 30))
			s.AvgLatency = rng.Float64() * 1e-6
		}
		out[i] = s
	}
	return out
}

// encodeFrame is a test helper: one batch, one frame, body only.
func encodeFrame(t *testing.T, session string, samples []Sample) []byte {
	t.Helper()
	frame, err := AppendBatch(nil, session, samples)
	if err != nil {
		t.Fatal(err)
	}
	return frame[FramePrefixBytes:]
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var dst []Sample
	for trial := 0; trial < 50; trial++ {
		in := randomBatch(rng, 1+rng.Intn(200))
		body := encodeFrame(t, "vm-roundtrip", in)
		session, out, err := DecodeBatchInto(dst[:0], body)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dst = out
		if string(session) != "vm-roundtrip" {
			t.Fatalf("trial %d: session %q", trial, session)
		}
		if len(out) != len(in) {
			t.Fatalf("trial %d: %d samples, want %d", trial, len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("trial %d sample %d: %+v != %+v", trial, i, out[i], in[i])
			}
		}
	}
}

// TestBinaryMatchesJSON pins codec equivalence: a batch sent through
// the JSON wire form and the same batch sent through the binary wire
// form must decode to bit-identical samples, so the two ingest routes
// feed detectors exactly the same numbers.
func TestBinaryMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		in := randomBatch(rng, 1+rng.Intn(64))

		blob, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON []Sample
		if err := json.Unmarshal(blob, &viaJSON); err != nil {
			t.Fatal(err)
		}

		_, viaBinary, err := DecodeBatchInto(nil, encodeFrame(t, "vm-eq", in))
		if err != nil {
			t.Fatal(err)
		}

		if len(viaJSON) != len(viaBinary) {
			t.Fatalf("trial %d: %d vs %d samples", trial, len(viaJSON), len(viaBinary))
		}
		for i := range viaJSON {
			if viaJSON[i] != viaBinary[i] {
				t.Fatalf("trial %d sample %d: json %+v != binary %+v", trial, i, viaJSON[i], viaBinary[i])
			}
		}
	}
}

// TestBinaryLegacyThreeFieldFrame: a frame declaring 3 fields per
// sample (a producer predating the DRAM counters, or AppendBatch on a
// batch without them) decodes with BWBytes/AvgLatency zero — the binary
// analogue of the 3-field JSON form staying valid.
func TestBinaryLegacyThreeFieldFrame(t *testing.T) {
	body := rawFrame(3, "vm-old", 2, words(0.01, 120, 8, 0.02, 117, 9)...)
	session, out, err := decodeBoth(t, body)
	if err != nil {
		t.Fatal(err)
	}
	if string(session) != "vm-old" || len(out) != 2 {
		t.Fatalf("decoded %q / %d samples", session, len(out))
	}
	want := Sample{Time: 0.01, AccessNum: 120, MissNum: 8}
	if !sameBits(out[0], want) {
		t.Fatalf("legacy sample = %+v, want %+v", out[0], want)
	}
	if out[1].BWBytes != 0 || out[1].AvgLatency != 0 {
		t.Fatalf("legacy sample grew DRAM counters: %+v", out[1])
	}
	// A decode into a reused slice must not inherit the old DRAM pair.
	dst := []Sample{{BWBytes: 1, AvgLatency: 2}}
	if _, out, err := DecodeBatchInto(dst[:0], body); err != nil || !sameBits(out[0], want) {
		t.Fatalf("reused destination: %+v, %v", out, err)
	}
}

// TestBinarySkipsAppendedFields: a future producer declaring more than
// 5 fields per sample still decodes on today's reader, extra fields
// skipped, and a 4-field one decodes with AvgLatency zero.
func TestBinarySkipsAppendedFields(t *testing.T) {
	body := rawFrame(7, "vm-new", 2, words(0.01, 120, 8, 6.4e7, 3.2e-8, 42, 43, 0.02, 117, 9, 0, 0, math.NaN(), -1)...)
	_, out, err := decodeBoth(t, body)
	if err != nil {
		t.Fatal(err)
	}
	want := []Sample{{Time: 0.01, AccessNum: 120, MissNum: 8, BWBytes: 6.4e7, AvgLatency: 3.2e-8}, {Time: 0.02, AccessNum: 117, MissNum: 9}}
	if len(out) != 2 || !sameBits(out[0], want[0]) || !sameBits(out[1], want[1]) {
		t.Fatalf("decoded %+v, want %+v", out, want)
	}
	_, out, err = decodeBoth(t, rawFrame(4, "vm-new", 1, words(0.01, 120, 8, 6.4e7)...))
	if want := (Sample{Time: 0.01, AccessNum: 120, MissNum: 8, BWBytes: 6.4e7}); err != nil || len(out) != 1 || !sameBits(out[0], want) {
		t.Fatalf("4-field frame decoded %+v (%v), want %+v", out, err, want)
	}
}

func TestBinaryDecodeRejects(t *testing.T) {
	good := encodeFrame(t, "vm-1", []Sample{{Time: 0.01, AccessNum: 120, MissNum: 8}})
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"empty body", nil, "pcm: empty frame body"},
		{"version 1", v1Body(), "pcm: unknown frame version 1 (reader supports 2)"},
		{"version skew", append([]byte{BinaryVersion + 1}, good[1:]...), "pcm: unknown frame version 3"},
		{"truncated", good[:len(good)-1], "pcm: truncated frame: 1 samples of 3 fields need 24 bytes, 23 left"},
		{"header only", good[:2], "pcm: truncated or overlong session length varint"},
		{"trailing bytes", append(append([]byte(nil), good...), 0x00), "pcm: 1 trailing bytes after frame samples"},
		{"two fields", []byte{BinaryVersion, 2}, "pcm: frame declares 2 fields per sample (want 3-16)"},
		{"giant fields", []byte{BinaryVersion, 200, 1}, "pcm: frame declares 200 fields per sample (want 3-16)"},
		{"zero samples", rawFrame(3, "vm-1", 0), "pcm: frame sample count 0 (want 1-65536)"},
		{"negative counter", rawFrame(3, "vm-1", 1, words(0.01, -5, 8)...), "pcm: sample 0: pcm: negative counters -5/8"},
		{"nan counter", rawFrame(3, "vm-1", 1, words(0.01, math.NaN(), 8)...), "pcm: sample 0: pcm: non-finite AccessNum NaN"},
		{"bad session", rawFrame(3, "a/b\n", 1), `pcm: frame session id "a/b\n" contains forbidden byte '/'`},
	}
	for _, c := range cases {
		if _, _, err := decodeBoth(t, c.body); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}

// v1Body is the sample {0.01, 120, 8} as a version-1 producer wrote it,
// each field a uvarint of its byte-reversed bit pattern.
func v1Body() []byte {
	b := []byte{1, 5, 4, 'v', 'm', '-', '1', 1}
	for _, v := range []float64{0.01, 120, 8, 0, 0} {
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v)))
	}
	return b
}

func TestAppendBatchRejects(t *testing.T) {
	ok := []Sample{{Time: 1, AccessNum: 1, MissNum: 1}}
	if _, err := AppendBatch(nil, "", ok); err == nil {
		t.Error("empty session accepted")
	}
	if _, err := AppendBatch(nil, strings.Repeat("x", 129), ok); err == nil {
		t.Error("oversized session accepted")
	}
	if _, err := AppendBatch(nil, "a b", ok); err == nil {
		t.Error("session with space accepted")
	}
	if _, err := AppendBatch(nil, "vm-1", nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := AppendBatch(nil, "vm-1", []Sample{{Time: math.NaN()}}); err == nil {
		t.Error("NaN sample accepted")
	}
	if _, err := AppendBatch(nil, "vm-1", []Sample{{Time: 1, AccessNum: -2, MissNum: 1}}); err == nil {
		t.Error("negative counter accepted")
	}
}

// TestAppendBatchLeavesPrefixOnError: a failed append must not leave a
// half-written frame in the caller's buffer.
func TestAppendBatchLeavesPrefixOnError(t *testing.T) {
	buf, err := AppendBatch(nil, "vm-1", []Sample{{Time: 1, AccessNum: 2, MissNum: 3}})
	if err != nil {
		t.Fatal(err)
	}
	n := len(buf)
	if buf, err = AppendBatch(buf, "vm-1", []Sample{{Time: math.Inf(1)}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if len(buf) != n {
		t.Fatalf("buffer grew to %d on failed append, want %d", len(buf), n)
	}
}

func TestFrameReader(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// The 3000-sample frame is larger than the read buffer: it is copied
	// out rather than returned in place. The short reads make frames
	// straddle the buffer's refills.
	batches := [][]Sample{randomBatch(rng, 10), randomBatch(rng, 1), randomBatch(rng, 333), randomBatch(rng, 3000), randomBatch(rng, 7)}
	var wire []byte
	var err error
	for i, b := range batches {
		if wire, err = AppendBatch(wire, "vm-stream", b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if len(wire) < 2*FrameReadBuffer {
		t.Fatalf("stream of %d bytes never overflows the %d-byte read buffer", len(wire), FrameReadBuffer)
	}

	fr := NewFrameReader(&shortReader{r: bytes.NewReader(wire), sizes: []byte{200, 3, 77}}, 0)
	var dst []Sample
	for i, want := range batches {
		body, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		_, got, err := DecodeBatchInto(dst[:0], body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		dst = got
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d samples, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("frame %d sample %d: %+v != %+v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// EOF inside a frame is never a clean close: io.EOF is only
	// legitimate when the stream ends exactly on a frame boundary.
	boundary := map[int]bool{0: true}
	for off := 0; off < len(wire); {
		off += FramePrefixBytes + int(binary.LittleEndian.Uint32(wire[off:]))
		boundary[off] = true
	}
	for cut := 1; cut < len(wire); cut += 997 {
		fr := NewFrameReader(bytes.NewReader(wire[:cut]), 0)
		var err error
		for err == nil {
			_, err = fr.Next()
		}
		if err == io.EOF && !boundary[cut] {
			t.Fatalf("cut %d inside a frame returned clean io.EOF", cut)
		}
	}

	// Oversized frame declared in the prefix is refused before buffering.
	huge := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := NewFrameReader(bytes.NewReader(huge), 0).Next(); err == nil || err == io.EOF {
		t.Fatalf("oversized frame: %v", err)
	}
	// Zero-length frame likewise.
	if _, err := NewFrameReader(bytes.NewReader([]byte{0, 0, 0, 0}), 0).Next(); err == nil || err == io.EOF {
		t.Fatalf("zero-length frame: %v", err)
	}
}

// shortReader returns at most the next of sizes bytes per Read, cycling
// through sizes (a zero size reads one byte), and counts its reads: the
// stream arrives in the pieces a network would cut it into.
type shortReader struct {
	r     io.Reader
	sizes []byte
	reads int
}

func (sr *shortReader) Read(p []byte) (int, error) {
	n := 1
	if len(sr.sizes) > 0 {
		n = max(1, int(sr.sizes[sr.reads%len(sr.sizes)]))
	}
	sr.reads++
	return sr.r.Read(p[:min(n, len(p))])
}

// readFrames runs fr to the end of its stream and returns every frame it
// yielded and its final error.
func readFrames(fr *FrameReader) (frames [][]byte, err error) {
	for {
		body, err := fr.Next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, append([]byte(nil), body...))
	}
}

// FuzzFrameReader: whatever the byte stream and however it is cut into
// reads, Next never panics, returns exactly the stream's length-prefixed
// frames in order, reports io.EOF only on a frame boundary, never grows
// its frame buffer past maxFrame, and reads from the stream only when
// Ready said the next frame was not whole in memory. Frames that straddle
// the read buffer's refills must come out the same as from a reader
// handed the stream one byte at a time.
func FuzzFrameReader(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	wire, err := AppendBatch(nil, "vm-fuzz", randomBatch(rng, 3))
	if err != nil {
		f.Fatal(err)
	}
	if wire, err = AppendBatch(wire, "vm-fuzz", randomBatch(rng, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(wire, uint16(0), []byte{7})
	f.Add(wire[:len(wire)-3], uint16(0), []byte{1})
	f.Add(wire[:2], uint16(0), []byte(nil))
	f.Add([]byte{0, 0, 0, 0}, uint16(0), []byte{255})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3, 9, 0, 0, 0}, uint16(4), []byte{5, 2})
	f.Fuzz(func(t *testing.T, data []byte, maxFrame uint16, sizes []byte) {
		limit := int(maxFrame)
		if limit == 0 {
			limit = MaxFrameBytes
		}
		sr := &shortReader{r: bytes.NewReader(data), sizes: sizes}
		fr := NewFrameReader(sr, int(maxFrame))
		for off := 0; ; {
			ready, reads := fr.Ready(), sr.reads
			body, err := fr.Next()
			if ready && sr.reads != reads {
				t.Fatalf("offset %d: Ready, yet Next read from the stream", off)
			}
			if cap(fr.buf) > limit {
				t.Fatalf("buffer grew to %d, maxFrame %d", cap(fr.buf), limit)
			}
			rest := data[off:]
			if len(rest) == 0 {
				if err != io.EOF {
					t.Fatalf("stream end at %d: got %v, want io.EOF", off, err)
				}
				break
			}
			var want []byte
			if len(rest) >= FramePrefixBytes {
				if n := int(binary.LittleEndian.Uint32(rest)); n > 0 && n <= limit && n <= len(rest)-FramePrefixBytes {
					want = rest[FramePrefixBytes : FramePrefixBytes+n]
				}
			}
			if want == nil {
				if err == nil || err == io.EOF {
					t.Fatalf("offset %d: got (%d bytes, %v), want an error", off, len(body), err)
				}
				break
			}
			if err != nil || !bytes.Equal(body, want) {
				t.Fatalf("offset %d: got (%d bytes, %v), want the %d-byte frame", off, len(body), err, len(want))
			}
			off += FramePrefixBytes + len(want)
		}
		// The differential: short reads and single bytes agree on the
		// frames and on the error that ends them.
		cut, cutErr := readFrames(NewFrameReader(&shortReader{r: bytes.NewReader(data), sizes: sizes}, int(maxFrame)))
		one, oneErr := readFrames(NewFrameReader(iotest.OneByteReader(bytes.NewReader(data)), int(maxFrame)))
		if len(cut) != len(one) || fmt.Sprint(cutErr) != fmt.Sprint(oneErr) {
			t.Fatalf("short reads gave %d frames then %v, one-byte reads %d then %v", len(cut), cutErr, len(one), oneErr)
		}
		for i := range cut {
			if !bytes.Equal(cut[i], one[i]) {
				t.Fatalf("frame %d differs between short and one-byte reads", i)
			}
		}
	})
}

// TestDecodeBatchIntoZeroAlloc pins the decode hot path at zero
// allocations steady state (the acceptance bar for the streaming ingest
// route): with a warm destination slice, neither DecodeBatchInto nor
// FrameReader.Next may touch the heap.
func TestDecodeBatchIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	batch := randomBatch(rng, 256)
	wire, err := AppendBatch(nil, "vm-alloc", batch)
	if err != nil {
		t.Fatal(err)
	}
	var rd bytes.Reader
	fr := NewFrameReader(&rd, 0)
	dst := make([]Sample, 0, len(batch))

	// Warm the frame buffer.
	rd.Reset(wire)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(wire)
		body, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		_, out, err := DecodeBatchInto(dst[:0], body)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(batch) {
			t.Fatalf("decoded %d samples", len(out))
		}
	})
	if allocs != 0 {
		t.Fatalf("decode allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAppendBatchZeroAlloc: the encode side reuses the caller's buffer
// the same way.
func TestAppendBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	batch := randomBatch(rng, 256)
	buf, err := AppendBatch(nil, "vm-alloc", batch)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendBatch(buf[:0], "vm-alloc", batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode allocates %.1f allocs/op, want 0", allocs)
	}
}

// The reference codec: version 2 written the plain way, one field at a
// time through bytes.Buffer/bytes.Reader and encoding/binary, as the
// oracle for AppendBatch and DecodeBatchInto. Same frames out for the
// same samples, same accept set, same error text — the differential
// tests below and FuzzCodecMatchesReference hold the codec to that.

func refValidate(s Sample) error {
	switch {
	case math.IsNaN(s.Time) || math.IsInf(s.Time, 0):
		return fmt.Errorf("pcm: non-finite sample time %v", s.Time)
	case math.IsNaN(s.AccessNum) || math.IsInf(s.AccessNum, 0):
		return fmt.Errorf("pcm: non-finite AccessNum %v", s.AccessNum)
	case math.IsNaN(s.MissNum) || math.IsInf(s.MissNum, 0):
		return fmt.Errorf("pcm: non-finite MissNum %v", s.MissNum)
	case s.AccessNum < 0 || s.MissNum < 0:
		return fmt.Errorf("pcm: negative counters %v/%v", s.AccessNum, s.MissNum)
	case math.IsNaN(s.BWBytes) || math.IsInf(s.BWBytes, 0):
		return fmt.Errorf("pcm: non-finite BWBytes %v", s.BWBytes)
	case math.IsNaN(s.AvgLatency) || math.IsInf(s.AvgLatency, 0):
		return fmt.Errorf("pcm: non-finite AvgLatency %v", s.AvgLatency)
	case s.BWBytes < 0 || s.AvgLatency < 0:
		return fmt.Errorf("pcm: negative DRAM counters %v/%v", s.BWBytes, s.AvgLatency)
	}
	return nil
}

func refAppendBatch(dst []byte, session string, samples []Sample) ([]byte, error) {
	if err := ValidSessionID(session); err != nil {
		return dst, fmt.Errorf("pcm: frame %w", err)
	}
	if len(samples) == 0 {
		return dst, fmt.Errorf("pcm: empty sample batch")
	}
	if len(samples) > MaxFrameSamples {
		return dst, fmt.Errorf("pcm: batch of %d samples exceeds %d per frame", len(samples), MaxFrameSamples)
	}
	fieldCount := 3
	for i, s := range samples {
		if err := refValidate(s); err != nil {
			return dst, fmt.Errorf("pcm: sample %d: %w", i, err)
		}
		if math.Signbit(s.BWBytes) || s.BWBytes != 0 || math.Signbit(s.AvgLatency) || s.AvgLatency != 0 {
			fieldCount = 5
		}
	}
	var body bytes.Buffer
	body.WriteByte(BinaryVersion)
	body.Write(binary.AppendUvarint(nil, uint64(fieldCount)))
	body.Write(binary.AppendUvarint(nil, uint64(len(session))))
	body.WriteString(session)
	body.Write(binary.AppendUvarint(nil, uint64(len(samples))))
	for _, s := range samples {
		for _, v := range []float64{s.Time, s.AccessNum, s.MissNum, s.BWBytes, s.AvgLatency}[:fieldCount] {
			if err := binary.Write(&body, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body.Len()))
	return append(dst, body.Bytes()...), nil
}

func refDecodeBatchInto(dst []Sample, body []byte) (session []byte, samples []Sample, err error) {
	r := bytes.NewReader(body)
	version, err := r.ReadByte()
	if err != nil {
		return nil, dst, fmt.Errorf("pcm: empty frame body")
	}
	if version != BinaryVersion {
		return nil, dst, fmt.Errorf("pcm: unknown frame version %d (reader supports %d)", version, BinaryVersion)
	}
	uvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("pcm: truncated or overlong %s varint", what)
		}
		return v, nil
	}
	fieldCount, err := uvarint("field count")
	if err != nil {
		return nil, dst, err
	}
	if fieldCount < 3 || fieldCount > 16 {
		return nil, dst, fmt.Errorf("pcm: frame declares %d fields per sample (want 3-16)", fieldCount)
	}
	sessLen, err := uvarint("session length")
	if err != nil {
		return nil, dst, err
	}
	if sessLen == 0 || sessLen > 128 {
		return nil, dst, fmt.Errorf("pcm: frame session length %d (want 1-128)", sessLen)
	}
	if uint64(r.Len()) < sessLen {
		return nil, dst, fmt.Errorf("pcm: truncated frame session")
	}
	at := len(body) - r.Len()
	session = body[at : at+int(sessLen)]
	_, _ = r.Seek(int64(sessLen), io.SeekCurrent)
	if err := ValidSessionID(session); err != nil {
		return nil, dst, fmt.Errorf("pcm: frame %w", err)
	}
	count, err := uvarint("sample count")
	if err != nil {
		return nil, dst, err
	}
	if count == 0 || count > MaxFrameSamples {
		return nil, dst, fmt.Errorf("pcm: frame sample count %d (want 1-%d)", count, MaxFrameSamples)
	}
	if want := count * fieldCount * 8; uint64(r.Len()) < want {
		return nil, dst, fmt.Errorf("pcm: truncated frame: %d samples of %d fields need %d bytes, %d left", count, fieldCount, want, r.Len())
	} else if uint64(r.Len()) > want {
		return nil, dst, fmt.Errorf("pcm: %d trailing bytes after frame samples", uint64(r.Len())-want)
	}
	samples = dst
	for i := uint64(0); i < count; i++ {
		var f [16]float64
		for k := uint64(0); k < fieldCount; k++ {
			if err := binary.Read(r, binary.LittleEndian, &f[k]); err != nil {
				panic(err) // the length check above rules this out
			}
		}
		s := Sample{f[0], f[1], f[2], f[3], f[4]}
		if err := refValidate(s); err != nil {
			return nil, dst, fmt.Errorf("pcm: sample %d: %w", i, err)
		}
		samples = append(samples, s)
	}
	return session, samples, nil
}

// sameBits reports whether two samples are the same ten words: == would
// let -0 pass for +0.
func sameBits(a, b Sample) bool {
	fa := [...]float64{a.Time, a.AccessNum, a.MissNum, a.BWBytes, a.AvgLatency}
	fb := [...]float64{b.Time, b.AccessNum, b.MissNum, b.BWBytes, b.AvgLatency}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}

// sameErr reports whether two errors agree in presence and text.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// decodeBoth decodes body with the codec and with the reference and
// fails the test on any disagreement: accept or reject, error text,
// session bytes, sample bits.
func decodeBoth(t testing.TB, body []byte) ([]byte, []Sample, error) {
	t.Helper()
	session, samples, err := DecodeBatchInto(make([]Sample, 0, 4), body)
	refSession, refSamples, refErr := refDecodeBatchInto(nil, body)
	if !sameErr(err, refErr) {
		t.Fatalf("body %x: decode error %v, reference %v", body, err, refErr)
	}
	if err != nil {
		if session != nil || len(samples) != 0 {
			t.Fatalf("body %x: refused frame returned %q / %d samples", body, session, len(samples))
		}
		return nil, nil, err
	}
	if !bytes.Equal(session, refSession) || len(samples) != len(refSamples) {
		t.Fatalf("body %x: decoded %q / %d samples, reference %q / %d", body, session, len(samples), refSession, len(refSamples))
	}
	for i := range samples {
		if !sameBits(samples[i], refSamples[i]) {
			t.Fatalf("body %x sample %d: %+v, reference %+v", body, i, samples[i], refSamples[i])
		}
	}
	return session, samples, nil
}

// encodeBoth encodes the batch with the codec and with the reference
// behind the same prefix and fails the test unless both refuse with the
// same text or both write the same bytes.
func encodeBoth(t testing.TB, session string, samples []Sample) ([]byte, error) {
	t.Helper()
	prefix := []byte("prefix")
	got, err := AppendBatch(append([]byte(nil), prefix...), session, samples)
	want, refErr := refAppendBatch(append([]byte(nil), prefix...), session, samples)
	if !sameErr(err, refErr) {
		t.Fatalf("encode %q %+v: error %v, reference %v", session, samples, err, refErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encode %q %+v:\n got %x\nwant %x", session, samples, got, want)
	}
	return got[len(prefix):], err
}

// rawFrame builds a frame body around fields given as bit patterns, so
// a test can put any word where a field belongs and declare any shape.
func rawFrame(fieldCount uint64, session string, count uint64, fields ...uint64) []byte {
	b := []byte{BinaryVersion}
	b = binary.AppendUvarint(b, fieldCount)
	b = binary.AppendUvarint(b, uint64(len(session)))
	b = append(b, session...)
	b = binary.AppendUvarint(b, count)
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	return b
}

// words is the bit patterns of vals, for rawFrame.
func words(vals ...float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestAppendBatchFieldCount: a frame drops the DRAM pair — 3 fields a
// sample — only when every sample's pair is bitwise +0. One -0 anywhere
// keeps all 5, and the -0 comes back as -0.
func TestAppendBatchFieldCount(t *testing.T) {
	negZero := math.Copysign(0, -1)
	base := []Sample{{Time: 0.01, AccessNum: 120, MissNum: 8}, {Time: 0.02, AccessNum: 117, MissNum: 9}}
	cases := []struct {
		name   string
		bw     float64
		lat    float64
		fields int
	}{
		{"zero pair", 0, 0, 3},
		{"bandwidth", 6.4e7, 0, 5},
		{"latency", 0, 3.2e-8, 5},
		{"negative zero bandwidth", negZero, 0, 5},
		{"negative zero latency", 0, negZero, 5},
	}
	for _, c := range cases {
		in := append([]Sample(nil), base...)
		in[1].BWBytes, in[1].AvgLatency = c.bw, c.lat
		frame, err := encodeBoth(t, "vm-fc", in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body := frame[FramePrefixBytes:]
		if body[1] != byte(c.fields) {
			t.Errorf("%s: %d fields a sample, want %d", c.name, body[1], c.fields)
		}
		if want := 1 + 1 + 1 + len("vm-fc") + 1 + len(in)*c.fields*8; len(body) != want {
			t.Errorf("%s: body of %d bytes, want %d", c.name, len(body), want)
		}
		_, out, err := decodeBoth(t, body)
		if err != nil || len(out) != len(in) || !sameBits(out[0], in[0]) || !sameBits(out[1], in[1]) {
			t.Errorf("%s: came back as %+v (%v), want %+v", c.name, out, err, in)
		}
	}
}

// TestCodecValueEdges: the floats at the edges of the accept set, in
// every slot, through both directions and against the reference.
func TestCodecValueEdges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	accepted := []float64{0, negZero, math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // largest subnormal
		2.2250738585072014e-308, 1, 0.01, 1 << 53, math.MaxFloat64}
	for _, v := range accepted {
		for slot := 0; slot < binaryFieldCount; slot++ {
			f := [binaryFieldCount]float64{}
			f[slot] = v
			in := []Sample{{f[0], f[1], f[2], f[3], f[4]}, {Time: 1, AccessNum: 2, MissNum: 3}}
			frame, err := encodeBoth(t, "vm-val", in)
			if err != nil {
				t.Fatalf("%v in slot %d refused: %v", v, slot, err)
			}
			_, out, err := decodeBoth(t, frame[FramePrefixBytes:])
			if err != nil || len(out) != 2 || !sameBits(out[0], in[0]) || !sameBits(out[1], in[1]) {
				t.Fatalf("%v in slot %d came back as %+v (%v)", v, slot, out, err)
			}
		}
	}
	// Negative time is legal (relative clocks); everything else here is
	// refused on both sides with the wording Validate has always used.
	if _, err := encodeBoth(t, "vm-val", []Sample{{Time: -math.MaxFloat64}}); err != nil {
		t.Fatalf("negative time refused: %v", err)
	}
	rejected := []struct {
		slot int
		v    float64
		msg  string
	}{
		{0, math.NaN(), "pcm: sample 1: pcm: non-finite sample time NaN"},
		{0, math.Inf(-1), "pcm: sample 1: pcm: non-finite sample time -Inf"},
		{1, math.Inf(1), "pcm: sample 1: pcm: non-finite AccessNum +Inf"},
		{1, -1, "pcm: sample 1: pcm: negative counters -1/0"},
		{2, math.NaN(), "pcm: sample 1: pcm: non-finite MissNum NaN"},
		{2, -math.SmallestNonzeroFloat64, "pcm: sample 1: pcm: negative counters 0/-5e-324"},
		{3, math.Inf(1), "pcm: sample 1: pcm: non-finite BWBytes +Inf"},
		{3, -2, "pcm: sample 1: pcm: negative DRAM counters -2/0"},
		{4, math.NaN(), "pcm: sample 1: pcm: non-finite AvgLatency NaN"},
		{4, -1e-9, "pcm: sample 1: pcm: negative DRAM counters 0/-1e-09"},
	}
	for _, c := range rejected {
		f := [binaryFieldCount]float64{}
		f[c.slot] = c.v
		in := []Sample{{Time: 1}, {f[0], f[1], f[2], f[3], f[4]}}
		if _, err := encodeBoth(t, "vm-val", in); err == nil || err.Error() != c.msg {
			t.Errorf("encode %v in slot %d: %v, want %q", c.v, c.slot, err, c.msg)
		}
		var fields []float64
		for _, s := range in {
			fields = append(fields, s.Time, s.AccessNum, s.MissNum, s.BWBytes, s.AvgLatency)
		}
		if _, _, err := decodeBoth(t, rawFrame(5, "vm-val", 2, words(fields...)...)); err == nil || err.Error() != c.msg {
			t.Errorf("decode %v in slot %d: %v, want %q", c.v, c.slot, err, c.msg)
		}
	}
}

// TestCodecMatchesReferenceOnEveryLength drives a million field values,
// spread evenly over every bit length, through both directions of the
// codec and the reference, in frames of every field count the codec
// meets: 3 and 5 from the encoder, 3, 4, 5 and 16 hand-built, with values
// in kept and in dropped slots.
func TestCodecMatchesReferenceOnEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pattern := func() uint64 { return rng.Uint64() >> uint(rng.Intn(65)) }
	// finite forces a pattern's exponent off all-ones and, for a counter
	// slot, its sign off, so the value is one the encoder accepts.
	finite := func(u uint64, counter bool) float64 {
		if u&0x7ff0000000000000 == 0x7ff0000000000000 {
			u &^= 1 << 62
		}
		if counter {
			u &^= 1 << 63
		}
		return math.Float64frombits(u)
	}
	const perFrame = 200
	for done := 0; done < 1_000_000; {
		// Encode side: valid samples, every slot a random length; half
		// the frames without the DRAM pair.
		in := make([]Sample, perFrame)
		noDRAM := rng.Intn(2) == 0
		for i := range in {
			in[i] = Sample{finite(pattern(), false), finite(pattern(), true), finite(pattern(), true),
				finite(pattern(), true), finite(pattern(), true)}
			if noDRAM {
				in[i].BWBytes, in[i].AvgLatency = 0, 0
			}
		}
		frame, err := encodeBoth(t, "vm-diff", in)
		if err != nil {
			t.Fatal(err)
		}
		if _, out, err := decodeBoth(t, frame[FramePrefixBytes:]); err != nil || len(out) != perFrame {
			t.Fatalf("round trip: %d samples, %v", len(out), err)
		}
		done += perFrame * binaryFieldCount

		// Decode side: any pattern at all in the dropped slots of a
		// 16-field frame, and 3- and 4-field frames of the same kept values.
		var wide, three, four []uint64
		for i := range in[:20] {
			s := &in[i]
			kept := words(s.Time, s.AccessNum, s.MissNum)
			three = append(three, kept...)
			four = append(append(four, kept...), math.Float64bits(s.BWBytes))
			wide = append(append(wide, kept...), words(s.BWBytes, s.AvgLatency)...)
			for k := binaryFieldCount; k < maxFieldCount; k++ {
				wide = append(wide, pattern())
			}
		}
		if _, out, err := decodeBoth(t, rawFrame(maxFieldCount, "vm-diff", 20, wide...)); err != nil || !sameBits(out[19], in[19]) {
			t.Fatalf("16-field frame: %v", err)
		}
		if _, out, err := decodeBoth(t, rawFrame(4, "vm-diff", 20, four...)); err != nil || out[19].BWBytes != in[19].BWBytes || out[19].AvgLatency != 0 {
			t.Fatalf("4-field frame: %v", err)
		}
		if _, out, err := decodeBoth(t, rawFrame(3, "vm-diff", 20, three...)); err != nil || out[19].MissNum != in[19].MissNum || out[19].BWBytes != 0 {
			t.Fatalf("3-field frame: %v", err)
		}
		done += 20 * (maxFieldCount + 4 + 3)
	}
}

// TestDecodeBatchIntoHostileCount: a tiny body declaring the largest
// sample count is refused with the reference's error and without
// reserving room for samples it cannot hold.
func TestDecodeBatchIntoHostileCount(t *testing.T) {
	body := rawFrame(3, "vm-lie", MaxFrameSamples, words(0.01, 120, 8, 0.02)...)
	if _, _, err := decodeBoth(t, body); err == nil || err.Error() != "pcm: truncated frame: 65536 samples of 3 fields need 1572864 bytes, 32 left" {
		t.Fatalf("hostile count: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		_, _, _ = DecodeBatchInto(nil, body)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 4096 {
		t.Fatalf("hostile count allocates %d bytes a frame", per)
	}
}

// simulatedBatch is the shape the serving benchmarks carry: k*0.01
// timestamps and full-mantissa simulator counters with the DRAM pair
// zero, so 3-field frames of 24 wire bytes a sample.
func simulatedBatch(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Time: float64(i+1) * 0.01, AccessNum: rng.Float64() * 1e6, MissNum: rng.Float64() * 1e5}
	}
	return out
}

// benchFrameSizes are e2ebench's two frame shapes: fleet_paced's
// 10-sample frames, where the per-frame header work shows, and
// ingest_sat's 256-sample ones, where only the field loop does.
var benchFrameSizes = []int{10, 256}

func BenchmarkDecodeBatchInto(b *testing.B) {
	for _, n := range benchFrameSizes {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			batch := simulatedBatch(rand.New(rand.NewSource(1)), n)
			frame, err := AppendBatch(nil, "vm-bench", batch)
			if err != nil {
				b.Fatal(err)
			}
			body := frame[FramePrefixBytes:]
			dst := make([]Sample, 0, len(batch))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, out, err := DecodeBatchInto(dst[:0], body)
				if err != nil {
					b.Fatal(err)
				}
				dst = out
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/sample")
		})
	}
}

func BenchmarkAppendBatch(b *testing.B) {
	for _, n := range benchFrameSizes {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			batch := simulatedBatch(rand.New(rand.NewSource(1)), n)
			buf, err := AppendBatch(nil, "vm-bench", batch)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = AppendBatch(buf[:0], "vm-bench", batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/sample")
		})
	}
}
