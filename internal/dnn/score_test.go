package dnn

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"memdos/internal/sim"
)

// scorerFixture builds an untrained (random-weight) cascade with fitted
// normalization — enough for exact-equivalence tests that only compare
// the scorer against itself or the graph.
func scorerFixture(t testing.TB, w int) (*Cascade, []CascadeSample) {
	t.Helper()
	samples := synthCascadeSamples(sim.NewRNG(91), 64, w)
	c, err := NewCascade(2, tinyArch, sim.NewRNG(92))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][][]float64, len(samples))
	for i, s := range samples {
		raw[i] = s.Window
	}
	c.Norm, err = FitChannelNorm(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c, samples
}

func flattenWindows(samples []CascadeSample) []float64 {
	w := len(samples[0].Window)
	flat := make([]float64, 0, len(samples)*w*2)
	for _, s := range samples {
		for _, row := range s.Window {
			flat = append(flat, row[0], row[1])
		}
	}
	return flat
}

// ScoreFlat over N windows must be byte-identical to N batch-1 calls —
// logits included, not just verdicts. The windows are chosen so the
// interior convolution panels (kernels 9/5/3: T-8, T-4, T-2 rows) leave
// every possible remainder after the kernel's 4-row tier — 0 and 2 at
// T=20, 1 and 3 at T=21 and T=23 — and the batch of 37 crosses scoreTile
// with a 5-window second tile, so the LSTM and dense panels see a row
// remainder too.
func TestScoreBatchMatchesLooped(t *testing.T) {
	const n = scoreTile + 5
	for _, w := range []int{20, 21, 23} {
		t.Run(fmt.Sprintf("window%d", w), func(t *testing.T) {
			c, samples := scorerFixture(t, w)
			s, err := c.Scorer(w, ScorerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			flat := flattenWindows(samples[:n])

			apps := make([]int, n)
			attacks := make([]int, n)
			s.ScoreFlat(n, flat, apps, attacks)
			batchedApp := append([]float32(nil), s.app.logits[:n*s.app.classes]...)
			batchedAtk := append([]float32(nil), s.atk.logits[:n*s.atk.classes]...)

			a1 := make([]int, 1)
			k1 := make([]int, 1)
			for i := 0; i < n; i++ {
				s.ScoreFlat(1, flat[i*w*2:(i+1)*w*2], a1, k1)
				if a1[0] != apps[i] || k1[0] != attacks[i] {
					t.Fatalf("window %d: looped verdict (%d,%d) != batched (%d,%d)",
						i, a1[0], k1[0], apps[i], attacks[i])
				}
				for o := 0; o < s.app.classes; o++ {
					if s.app.logits[o] != batchedApp[i*s.app.classes+o] {
						t.Fatalf("window %d: batch-1 app logit %d differs: %v vs %v",
							i, o, s.app.logits[o], batchedApp[i*s.app.classes+o])
					}
				}
				for o := 0; o < s.atk.classes; o++ {
					if s.atk.logits[o] != batchedAtk[i*s.atk.classes+o] {
						t.Fatalf("window %d: batch-1 attack logit %d differs: %v vs %v",
							i, o, s.atk.logits[o], batchedAtk[i*s.atk.classes+o])
					}
				}
			}
		})
	}
}

// scoreAll runs samples through a scorer compiled at their window length
// and returns the verdicts.
func scoreAll(t testing.TB, c *Cascade, samples []CascadeSample) (apps, attacks []int) {
	t.Helper()
	s, err := c.Scorer(len(samples[0].Window), ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	apps, attacks = make([]int, len(samples)), make([]int, len(samples))
	s.ScoreFlat(len(samples), flattenWindows(samples), apps, attacks)
	return apps, attacks
}

// The compiled scorer must agree with the float64 graph path on all but
// rounding-marginal windows.
func TestScorerMatchesGraph(t *testing.T) {
	const w = 20
	c, samples := scorerFixture(t, w)
	apps, attacks := scoreAll(t, c, samples)
	agree := 0
	for i, s := range samples {
		gApp, gAtk := c.ClassifyGraph(s.Window)
		if apps[i] == gApp && attacks[i] == gAtk {
			agree++
		}
	}
	// Random weights leave tiny margins; trained models agree essentially
	// always (TestCascadeEndToEnd exercises that through the scorer).
	if agree < len(samples)*9/10 {
		t.Fatalf("scorer agrees with graph on %d/%d windows", agree, len(samples))
	}
}

// The scorer has one path. A window it cannot be compiled for — a cascade
// with no fitted normalization, a window no longer than the widest
// kernel's edge split — is an error at compile time, not a silent pass
// through the float64 graph.
func TestScorerCompileErrors(t *testing.T) {
	fitted, _ := scorerFixture(t, 20)
	unfitted, err := NewCascade(2, tinyArch, sim.NewRNG(93))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		c      *Cascade
		window int
		want   string
	}{
		{"6-sample window", fitted, 6, "too short for kernel"},
		{"unfitted norm", unfitted, 20, "no fitted channel normalization"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.c.Scorer(tc.window, ScorerOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Scorer error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// A fork must score as the scorer it came from, bit for bit, statelessly
// and from carries, logits included; it shares the compiled weights and
// no arena, so the two scoring the same windows at once, each with
// carries of its own, is no race (run under -race). The batch of 36
// windows crosses scoreTile.
func TestForkMatchesScorer(t *testing.T) {
	const w, stride, sessions, perSession = 40, 5, 3, 12
	c, err := NewCascade(2, tinyArch, sim.NewRNG(92))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(93)
	streams := make([][]float64, sessions)
	var fit [][][]float64
	for i := range streams {
		streams[i] = slidingStream(rng, w+(perSession-1)*stride, w/2+3*i)
		win := make([][]float64, w)
		for j := range win {
			win[j] = streams[i][2*j : 2*j+2]
		}
		fit = append(fit, win)
	}
	if c.Norm, err = FitChannelNorm(fit); err != nil {
		t.Fatal(err)
	}
	s, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every session's windows in stream order, the sessions round robin.
	var flat []float64
	var ords []uint64
	var owner []int
	for k := 0; k < perSession; k++ {
		for i := range streams {
			flat = append(flat, streams[i][2*k*stride:2*(k*stride+w)]...)
			ords = append(ords, uint64(k+1))
			owner = append(owner, i)
		}
	}
	n := len(ords)

	type result struct {
		apps, attacks  []int
		appLog, atkLog []float32
		continued      int
	}
	score := func(sc *BatchScorer, carried bool) result {
		r := result{apps: make([]int, n), attacks: make([]int, n)}
		if carried {
			mine := make([]*Carry, sessions)
			for i := range mine {
				mine[i] = sc.NewCarry(stride)
			}
			carries := make([]*Carry, n)
			for i, o := range owner {
				carries[i] = mine[o]
			}
			r.continued = sc.ScoreCarried(n, flat, carries, ords, r.apps, r.attacks)
		} else {
			sc.ScoreFlat(n, flat, r.apps, r.attacks)
		}
		r.appLog = append([]float32(nil), sc.app.logits[:n*sc.app.classes]...)
		r.atkLog = append([]float32(nil), sc.atk.logits[:n*sc.atk.classes]...)
		return r
	}
	sameBits := func(a, b []float32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}

	for _, carried := range []bool{false, true} {
		want := score(s, carried)
		if carried && want.continued == 0 {
			t.Fatal("no window continued its carry: the carried path went unexercised")
		}
		f := s.Fork()
		if &f.app.wx[0] != &s.app.wx[0] || &f.atk.outW[0] != &s.atk.outW[0] {
			t.Fatal("the fork copied the compiled weights instead of sharing them")
		}
		var forked, parent result
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); forked = score(f, carried) }()
		go func() { defer wg.Done(); parent = score(s, carried) }()
		wg.Wait()
		for name, got := range map[string]result{"fork": forked, "parent beside its fork": parent} {
			if !slices.Equal(got.apps, want.apps) || !slices.Equal(got.attacks, want.attacks) ||
				!sameBits(got.appLog, want.appLog) || !sameBits(got.atkLog, want.atkLog) || got.continued != want.continued {
				t.Fatalf("carried=%v: %s scored apps %v attacks %v (%d continued), alone %v %v (%d), or logits differ",
					carried, name, got.apps, got.attacks, got.continued, want.apps, want.attacks, want.continued)
			}
		}
	}
}

// ScoreFlat at a steady batch size must not allocate (the benchpin
// companion of //memdos:hotpath on the Score path).
func TestScoreFlatZeroAllocs(t *testing.T) {
	const w, n = 20, 16
	c, samples := scorerFixture(t, w)
	s, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flat := flattenWindows(samples[:n])
	apps, attacks := make([]int, n), make([]int, n)
	s.ScoreFlat(n, flat, apps, attacks)
	if allocs := testing.AllocsPerRun(20, func() {
		s.ScoreFlat(n, flat, apps, attacks)
	}); allocs != 0 {
		t.Errorf("ScoreFlat allocates %v per run at steady state", allocs)
	}
}

func benchScorerSetup(b *testing.B, batch int) (*BatchScorer, []float64, []int, []int) {
	b.Helper()
	const w = 50
	samples := synthCascadeSamples(sim.NewRNG(7), batch, w)
	c, err := NewCascade(2, tinyArch, sim.NewRNG(8))
	if err != nil {
		b.Fatal(err)
	}
	raw := make([][][]float64, len(samples))
	for i, s := range samples {
		raw[i] = s.Window
	}
	if c.Norm, err = FitChannelNorm(raw); err != nil {
		b.Fatal(err)
	}
	s, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	flat := flattenWindows(samples)
	apps, attacks := make([]int, batch), make([]int, batch)
	s.ScoreFlat(batch, flat, apps, attacks) // warm arenas
	return s, flat, apps, attacks
}

// BenchmarkInferBatched times the compiled scorer at batch 1, 32 and
// 256 (e2ebench's dnn.score_us_per_window_* probes are its twins).
func BenchmarkInferBatched(b *testing.B) {
	for _, batch := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			s, flat, apps, attacks := benchScorerSetup(b, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScoreFlat(batch, flat, apps, attacks)
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}

// pinnedLogitStreams is the pin's input: six sessions' raw counter
// streams, each at its own scale and regime period so that one batch
// draws several different app verdicts.
func pinnedLogitStreams(w, stride, perSession int) [][]float64 {
	rng := sim.NewRNG(37)
	streams := make([][]float64, 6)
	for s := range streams {
		raw := slidingStream(rng, w+(perSession-1)*stride, 40+23*s)
		scale := math.Pow(4, float64(s)-2)
		for i := 0; i < len(raw); i += 2 {
			raw[i] *= scale
			raw[i+1] *= 1 / scale
		}
		streams[s] = raw
	}
	return streams
}

// logitDigest folds the Float32bits of every logit into h.
func logitDigest(h hash.Hash64, logits []float32) {
	var b [4]byte
	for _, v := range logits {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

// The compiled scorer's logits are pinned bit for bit: an FNV-64 digest of
// every app and attack logit ScoreFlat and ScoreCarried (stride 50) return
// on a fixed batch, for the compact 10-app cascade and the tiny one at
// W=200, under the assembly kernel and the portable one. A speed-only
// change to the scorer must leave every digest where it is. The batch
// draws at least three different app verdicts, so the attack stage runs
// under more than one app condition in one call. The digests are
// amd64's: elsewhere the compiler may fuse the portable kernel's
// multiply-add, which rounds differently.
func TestScorerLogitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("logit digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	const w, stride, perSession, numApps = 200, 50, 6, 10
	want := map[string]uint64{
		"compact/avx2/flat":        0xbf6f4dff844908dd,
		"compact/avx2/carried":     0xbf6f4dff844908dd,
		"compact/portable/flat":    0x5c02fe878595df91,
		"compact/portable/carried": 0x5c02fe878595df91,
		"tiny/avx2/flat":           0x31fbc8c0388632fd,
		"tiny/avx2/carried":        0x31fbc8c0388632fd,
		"tiny/portable/flat":       0xe55034deda0c5c60,
		"tiny/portable/carried":    0xe55034deda0c5c60,
	}
	streams := pinnedLogitStreams(w, stride, perSession)
	var fit [][][]float64
	var flat []float64
	var carryAt []int // session of each window, in batch order
	var ord []uint64
	for k := 0; k < perSession; k++ {
		for s, raw := range streams {
			win := raw[2*k*stride : 2*(k*stride+w)]
			flat = append(flat, win...)
			carryAt = append(carryAt, s)
			ord = append(ord, uint64(k+1))
			rows := make([][]float64, w)
			for i := range rows {
				rows[i] = win[2*i : 2*i+2]
			}
			fit = append(fit, rows)
		}
	}
	n := len(ord)
	for _, pc := range []struct {
		name string
		arch func(channels, classes int) LSTMFCNConfig
	}{{"compact", CompactLSTMFCNConfig}, {"tiny", tinyArch}} {
		c, err := NewCascade(numApps, pc.arch, sim.NewRNG(38))
		if err != nil {
			t.Fatal(err)
		}
		if c.Norm, err = FitChannelNorm(fit); err != nil {
			t.Fatal(err)
		}
		t.Run(pc.name, func(t *testing.T) {
			bothKernels(t, func(t *testing.T) {
				kernel := "portable"
				if f32SIMD {
					kernel = "avx2"
				}
				s, err := c.Scorer(w, ScorerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				apps, attacks := make([]int, n), make([]int, n)
				digest := func() uint64 {
					h := fnv.New64a()
					logitDigest(h, s.app.logits[:n*s.app.classes])
					logitDigest(h, s.atk.logits[:n*s.atk.classes])
					return h.Sum64()
				}
				s.ScoreFlat(n, flat, apps, attacks)
				verdicts := map[int]bool{}
				for _, a := range apps {
					verdicts[a] = true
				}
				if len(verdicts) < 3 {
					t.Fatalf("the batch draws %d app verdicts, want at least 3", len(verdicts))
				}
				got := map[string]uint64{"flat": digest()}
				carries := make([]*Carry, len(streams))
				for i := range carries {
					carries[i] = s.NewCarry(stride)
				}
				bc := make([]*Carry, n)
				for i, sess := range carryAt {
					bc[i] = carries[sess]
				}
				if cont := s.ScoreCarried(n, flat, bc, ord, apps, attacks); cont == 0 {
					t.Fatal("no window continued its carry")
				}
				got["carried"] = digest()
				for path, g := range got {
					key := pc.name + "/" + kernel + "/" + path
					if g != want[key] {
						t.Errorf("%s: logit digest %#016x, pinned %#016x", key, g, want[key])
					}
				}
			})
		})
	}
}

// Folding the attack stage's one-hot app channels into a three-column
// conv1 must not move a bit: every output row of the folded conv1 over
// [counters, 1] equals, Float32bits for bits, the original conv1 over the
// [T][2+numApps] one-hot input, at the zero-padded window ends and in the
// interior, under the assembly kernel and the portable one. The fuzzer
// picks the weights (through seed), the app count and window length, the
// app, and the counters: two bytes per value, scaled into the range
// normalized counters take.
func FuzzFoldedConv1MatchesOneHot(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(3), []byte{0x12, 0x34, 0x80, 0x00, 0xff, 0x7f})
	f.Add(uint64(7), uint16(9), uint8(0), []byte{})
	f.Add(uint64(42), uint16(23), uint8(9), []byte{0x00, 0x00, 0x01, 0x00, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, window uint16, app uint8, raw []byte) {
		rng := sim.NewRNG(seed)
		numApps := 2 + int(seed%9)
		m, err := NewLSTMFCN(CompactLSTMFCNConfig(realChannels+numApps, NumAttackClasses), rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		for o := range m.bn1.runMean {
			m.bn1.runMean[o] = rng.Normal(0, 1)
			m.bn1.runVar[o] = rng.Uniform(0.25, 4)
			m.bn1.gamma.W[o] = rng.Normal(1, 0.5)
			m.bn1.beta.W[o] = rng.Normal(0, 0.5)
		}
		T := m.conv1.K + int(window%300)
		a := int(app) % numApps
		oneHot := make([]float32, T*(realChannels+numApps))
		folded := make([]float32, T*(realChannels+1))
		for i := 0; i < T*realChannels; i++ {
			var v float32
			if len(raw) >= 2 {
				j := 2 * i % (len(raw) - len(raw)%2)
				v = float32(int16(binary.LittleEndian.Uint16(raw[j:]))) / 4096
			}
			tt, ch := i/realChannels, i%realChannels
			oneHot[tt*(realChannels+numApps)+ch] = v
			folded[tt*(realChannels+1)+ch] = v
		}
		for tt := 0; tt < T; tt++ {
			oneHot[tt*(realChannels+numApps)+realChannels+a] = 1
			folded[tt*(realChannels+1)+realChannels] = 1
		}
		ref := compileConv(m.conv1, m.bn1)
		fc := foldConv1(ref, numApps)[a]
		for _, simd := range []bool{f32SIMD, false} {
			saved := f32SIMD
			f32SIMD = simd
			want, got := make([]float32, T*ref.out), make([]float32, T*ref.out)
			(&modelProg{T: T}).convRows(&ref, oneHot, want, 0, T)
			(&modelProg{T: T}).convRows(&fc, folded, got, 0, T)
			f32SIMD = saved
			for i, v := range want {
				if math.Float32bits(got[i]) != math.Float32bits(v) {
					t.Fatalf("simd=%v T=%d app %d/%d: row %d channel %d folded %v, one-hot %v",
						simd, T, a, numApps, i/ref.out, i%ref.out, got[i], v)
				}
			}
		}
	})
}

// A model file the loader accepts can still be unservable in float32: a
// BatchScorer must refuse to compile it rather than serve ±Inf or NaN
// logits and a pinned verdict. A BatchNorm scale of 1e39 overflows the
// folded conv3 weights; a negative running variance makes conv1's NaN; a
// scale of 3e38 leaves every compiled weight finite (the largest is
// 1.5e38), but the fixture's own windows then score ±Inf app logits.
func TestScorerRefusesNonFiniteWeights(t *testing.T) {
	const w = 20
	c, _ := scorerFixture(t, w)
	if _, err := c.Scorer(w, ScorerOptions{}); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := c.Save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*cascadeSnapshot)
		finite bool // the tampered convolutions compile to finite weights
	}{
		{"bn3.gamma 1e39", func(s *cascadeSnapshot) { s.App.Params["bn3.gamma"][0] = 1e39 }, false},
		{"negative running variance", func(s *cascadeSnapshot) { s.Attack.RunningStats["bn0.var"][2] = -1 }, false},
		{"bn3.gamma 3e38", func(s *cascadeSnapshot) { s.App.Params["bn3.gamma"][0] = 3e38 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var snap cascadeSnapshot
			if err := json.Unmarshal(saved.Bytes(), &snap); err != nil {
				t.Fatal(err)
			}
			tc.tamper(&snap)
			file, err := json.Marshal(&snap)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCascade(bytes.NewReader(file))
			if err != nil {
				t.Fatalf("LoadCascade refused the file (%v); the scorer is the check under test", err)
			}
			finite := true
			for _, cp := range []convProg{compileConv(loaded.App.conv3, loaded.App.bn3), compileConv(loaded.Attack.conv1, loaded.Attack.bn1)} {
				for _, v := range cp.w {
					finite = finite && !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
				}
			}
			if finite != tc.finite {
				t.Fatalf("compiled weights finite = %v, the case wants %v", finite, tc.finite)
			}
			if _, err := loaded.Scorer(w, ScorerOptions{}); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("Scorer error = %v, want a corrupt-model error", err)
			}
		})
	}
}
