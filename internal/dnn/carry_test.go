package dnn

import (
	"fmt"
	"math"
	"testing"

	"memdos/internal/sim"
)

// bothKernels runs f under the machine's kernel and again with the
// assembly microkernel switched off, so scorers compiled inside f take
// the portable scalar GEMM end to end.
func bothKernels(t *testing.T, f func(t *testing.T)) {
	t.Run("native", f)
	t.Run("portable", func(t *testing.T) {
		saved := f32SIMD
		f32SIMD = false
		defer func() { f32SIMD = saved }()
		f(t)
	})
}

// slidingStream is one session's raw counter stream with a level shift
// every `period` samples, so consecutive windows straddle regimes and the
// app verdict flips now and then.
func slidingStream(rng *sim.RNG, n, period int) []float64 {
	out := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		acc, miss := 100+rng.Normal(0, 8), 10+rng.Normal(0, 1)
		switch (i / period) % 3 {
		case 1:
			acc, miss = acc*0.05, miss*12
		case 2:
			acc, miss = acc*(1+0.8*math.Sin(float64(i))), miss*0.2
		}
		out = append(out, math.Max(acc, 0), math.Max(miss, 0))
	}
	return out
}

// carriedCase is one configuration of the differential test.
type carriedCase struct {
	arch       func(channels, classes int) LSTMFCNConfig
	w          int
	stride     int
	perSession int // windows each session emits
}

// carriedTally is what a run of the differential test observed.
type carriedTally struct {
	windows, continued, flips, gaps int
}

// runCarriedCase drives three sessions' sliding windows through
// ScoreCarried in uneven batches — one window, then forty (a session a
// dozen times in one call, within and across a scoreTile boundary), then
// five, then the rest — with one window of one session never scored, and
// holds every window's verdicts and logits bit-equal to a batch-1
// ScoreFlat on a scorer compiled separately from the same cascade.
func runCarriedCase(t *testing.T, tc carriedCase) carriedTally {
	t.Helper()
	const sessions = 3
	w, stride, perSession := tc.w, tc.stride, tc.perSession

	c, err := NewCascade(2, tc.arch, sim.NewRNG(92))
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]float64, sessions)
	var fit [][][]float64
	rng := sim.NewRNG(93)
	for s := range streams {
		streams[s] = slidingStream(rng, w+(perSession-1)*stride, w/2+3*s)
		win := make([][]float64, w)
		for i := range win {
			win[i] = streams[s][2*i : 2*i+2]
		}
		fit = append(fit, win)
	}
	if c.Norm, err = FitChannelNorm(fit); err != nil {
		t.Fatal(err)
	}
	got, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The schedule: windows round-robin over the sessions, each session's
	// in stream order, session 1's third window shed.
	type slot struct{ sess, k int }
	var schedule []slot
	for k := 0; k < perSession; k++ {
		for s := 0; s < sessions; s++ {
			if s == 1 && k == 2 {
				continue
			}
			schedule = append(schedule, slot{s, k})
		}
	}
	carries := make([]*Carry, sessions)
	lastApp := make([]int, sessions)
	lastK := make([]int, sessions)
	for s := range carries {
		carries[s] = got.NewCarry(stride)
		lastK[s] = -2
	}
	wantBytes := 0
	if halo := got.app.halo; stride < w-2*halo {
		wantBytes = 4 * w * (got.app.fcnOut + got.atk.fcnOut)
	}
	if b := carries[0].Bytes(); b != wantBytes {
		t.Fatalf("carry holds %d bytes, want %d", b, wantBytes)
	}

	var tally carriedTally
	app1, atk1 := make([]int, 1), make([]int, 1)
	for _, size := range []int{1, scoreTile + 8, 5, len(schedule)} {
		size = min(size, len(schedule))
		batch := schedule[:size]
		schedule = schedule[size:]
		if size == 0 {
			break
		}
		var flat []float64
		var bc []*Carry
		var ord []uint64
		for _, sl := range batch {
			flat = append(flat, streams[sl.sess][2*sl.k*stride:2*(sl.k*stride+w)]...)
			bc = append(bc, carries[sl.sess])
			ord = append(ord, uint64(sl.k+1))
		}
		apps, attacks := make([]int, size), make([]int, size)
		tally.continued += got.ScoreCarried(size, flat, bc, ord, apps, attacks)
		tally.windows += size
		appLog := append([]float32(nil), got.app.logits[:size*got.app.classes]...)
		atkLog := append([]float32(nil), got.atk.logits[:size*got.atk.classes]...)
		for i, sl := range batch {
			ref.ScoreFlat(1, flat[i*w*2:(i+1)*w*2], app1, atk1)
			if app1[0] != apps[i] || atk1[0] != attacks[i] {
				t.Fatalf("session %d window %d: carried verdict (%d,%d), stateless (%d,%d)",
					sl.sess, sl.k, apps[i], attacks[i], app1[0], atk1[0])
			}
			for o, v := range ref.app.logits[:ref.app.classes] {
				if g := appLog[i*got.app.classes+o]; math.Float32bits(g) != math.Float32bits(v) {
					t.Fatalf("session %d window %d: app logit %d carried %v, stateless %v", sl.sess, sl.k, o, g, v)
				}
			}
			for o, v := range ref.atk.logits[:ref.atk.classes] {
				if g := atkLog[i*got.atk.classes+o]; math.Float32bits(g) != math.Float32bits(v) {
					t.Fatalf("session %d window %d: attack logit %d carried %v, stateless %v", sl.sess, sl.k, o, g, v)
				}
			}
			switch {
			case sl.k != lastK[sl.sess]+1 && lastK[sl.sess] >= 0:
				tally.gaps++
			case sl.k > 0 && apps[i] != lastApp[sl.sess]:
				tally.flips++
			}
			lastK[sl.sess], lastApp[sl.sess] = sl.k, apps[i]
		}
	}
	return tally
}

// ScoreCarried must be ScoreFlat, bit for bit: every window's app and
// attack logits equal a batch-1 stateless pass on an independently
// compiled scorer, over windows short and long, strides from one sample
// to none shared (T−2c−1 is the last stride that carries a row, T−2c the
// first that does not), app verdicts that flip under a contiguous
// session, a shed window, and sessions that recur inside one call — under
// the assembly kernel and the portable one.
func TestScoreCarriedMatchesStateless(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		const halo = 4 + 2 + 1 // kernels 9/5/3
		var total carriedTally
		for _, w := range []int{21, 64, 200} {
			for _, stride := range []int{1, 7, 50, w - 2*halo - 1, w - 2*halo, w} {
				if stride > w {
					continue
				}
				t.Run(fmt.Sprintf("w%d/stride%d", w, stride), func(t *testing.T) {
					got := runCarriedCase(t, carriedCase{tinyArch, w, stride, 24})
					// Every window that follows its predecessor under an
					// unchanged app verdict reuses both slabs; nothing else
					// may, and past T−2c nothing can.
					want := got.windows - 3 - got.gaps - got.flips
					if stride >= w-2*halo {
						want = 0
					}
					if got.continued != want {
						t.Errorf("%d of %d windows continued, want %d (%d gaps, %d flips)",
							got.continued, got.windows, want, got.gaps, got.flips)
					}
					if got.gaps != 1 {
						t.Errorf("saw %d ordinal gaps, the schedule has 1", got.gaps)
					}
					total.continued += got.continued
					total.flips += got.flips
				})
			}
		}
		if total.flips == 0 || total.continued == 0 {
			t.Errorf("inputs exercised %d verdict flips and %d continued windows; both must occur", total.flips, total.continued)
		}
		t.Run("paper/w24/stride3", func(t *testing.T) {
			if got := runCarriedCase(t, carriedCase{PaperLSTMFCNConfig, 24, 3, 5}); got.continued == 0 {
				t.Error("no window continued at the paper architecture")
			}
		})
	})
}

// The constant LSTM steps' precomputed pre-activation rows must carry the
// bits of the GEMM they replace: an all-ones (all-zeros) observation row
// through wx on top of the bias, in a panel of any height.
func TestConstantStepMatchesGEMM(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		const w, m = 23, 7
		c, _ := scorerFixture(t, w)
		s, err := c.Scorer(w, ScorerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p := s.atk
		obs := make([]float32, m*w)
		for r := 0; r < m; r += 2 {
			for i := 0; i < w; i++ {
				obs[r*w+i] = 1
			}
		}
		pre := make([]float32, m*p.g4)
		sbiasRows(m, p.g4, pre, p.lb)
		sgemm(m, p.g4, w, obs, w, p.wx, p.g4, pre, p.g4, epiAdd)
		for r := 0; r < m; r++ {
			want := p.preCold
			if r%2 == 0 {
				want = p.preHot
			}
			for j, v := range pre[r*p.g4 : (r+1)*p.g4] {
				if math.Float32bits(v) != math.Float32bits(want[j]) {
					t.Fatalf("row %d gate %d: GEMM %v, precomputed %v", r, j, v, want[j])
				}
			}
		}
	})
}

// ScoreCarried at a steady batch shape, carries already allocated, must
// not allocate: the benchpin companion of its //memdos:hotpath mark.
func TestScoreCarriedZeroAllocs(t *testing.T) {
	const w, stride, n = 40, 5, 16
	c, _ := scorerFixture(t, w)
	s, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stream := slidingStream(sim.NewRNG(5), w+stride, w)
	flat := make([]float64, 0, n*w*2)
	carry := make([]*Carry, n)
	ord := make([]uint64, n)
	for i := range carry {
		flat = append(flat, stream[2*stride:]...)
		carry[i] = s.NewCarry(stride)
	}
	apps, attacks := make([]int, n), make([]int, n)
	next := uint64(0)
	score := func() int {
		next++
		for i := range ord {
			ord[i] = next
		}
		return s.ScoreCarried(n, flat, carry, ord, apps, attacks)
	}
	score()
	if allocs := testing.AllocsPerRun(20, func() { score() }); allocs != 0 {
		t.Errorf("ScoreCarried allocates %v per run at steady state", allocs)
	}
}
