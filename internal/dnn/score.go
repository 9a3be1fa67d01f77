package dnn

import (
	"fmt"
	"math"
)

// BatchScorer is the cascade's production inference engine: a compiled,
// float32, allocation-free forward path that fuses N session windows into
// single [N·T × C] tensors and runs them through AVX2/FMA GEMM
// microkernels (kernels32). It exists because the training graph —
// float64, im2col copies, per-element BatchNorm, cached activations for
// backward — is an order of magnitude too slow to serve a fleet.
//
// Compilation folds each BatchNorm into its convolution (w' = w·γ/σ,
// b' = β + γ(b−μ)/σ), stages every weight matrix in the [k][n] layout
// the NN-form C += A·B kernel wants (for the LSTM, attention, and dense
// layers that is their natural storage order; only conv weights
// transpose), fuses the convolution ReLUs into the GEMM epilogue, and
// drops everything inference never reads: ReLU masks, dropout,
// activation caches. Interior convolution rows skip im2col entirely — a
// window row's receptive field is already a contiguous slice of the
// input tensor — so only the K/2 edge rows per side are staged into a
// zero-padded arena.
//
// Scoring runs in two steps: Prepare normalizes raw counter windows into
// the scorer's input slot, Score runs the compiled cascade on it. A
// scorer has one slot and one set of arenas, so it serves one caller at
// a time.
//
// Determinism: the scorer inherits the kernel layer's schedule guarantee
// — every output element accumulates identically regardless of batch
// size — so ScoreFlat over N windows is byte-identical to N batch-1
// calls.
type BatchScorer struct {
	w       int // window length
	numApps int

	nmean, ninv [2]float32 // folded ChannelNorm: x' = (log1p(x)-mean)*inv
	nvec        normVec    // the same, in the vector kernel's lane pattern

	app, atk *modelProg

	prep PreparedBatch
	cond []float32 // conditioned attack-stage input [n][w][2+numApps]
}

// ScorerOptions is empty: the scorer has one numeric path. The type
// remains because the constructors' callers pass it.
type ScorerOptions struct{}

// PreparedBatch is a normalized input batch staged in the scorer's input
// slot. It is valid until the next Prepare.
type PreparedBatch struct {
	owner *BatchScorer
	n     int
	x     []float32 // [n][w][2]
}

// N returns the number of windows in the batch.
func (p *PreparedBatch) N() int { return p.n }

// NewBatchScorer compiles the cascade for the given window length. The
// cascade must have fitted normalization statistics (train or load
// first); its lazily built LSTM branches are materialized here if needed.
// Returns an error for windows shorter than the convolution stack's edge
// region, where the compiled edge/interior split does not apply.
func NewBatchScorer(c *Cascade, window int, _ ScorerOptions) (*BatchScorer, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dnn: scorer window must be positive, got %d", window)
	}
	if len(c.Norm.Mean) != 2 || len(c.Norm.Std) != 2 {
		return nil, fmt.Errorf("dnn: cascade has no fitted channel normalization")
	}
	if c.App.lstm == nil {
		c.App.Forward(NewTensor(1, window, 2), false)
	}
	if c.Attack.lstm == nil {
		c.Attack.Forward(NewTensor(1, window, 2+c.NumApps), false)
	}
	app, err := compileModel(c.App, window)
	if err != nil {
		return nil, fmt.Errorf("dnn: compiling app stage: %w", err)
	}
	atk, err := compileModel(c.Attack, window)
	if err != nil {
		return nil, fmt.Errorf("dnn: compiling attack stage: %w", err)
	}
	s := &BatchScorer{
		w:       window,
		numApps: c.NumApps,
		app:     app,
		atk:     atk,
	}
	for ch := 0; ch < 2; ch++ {
		s.nmean[ch] = float32(c.Norm.Mean[ch])
		s.ninv[ch] = float32(1 / c.Norm.Std[ch])
	}
	s.nvec = makeNormVec(s.nmean, s.ninv)
	s.prep.owner = s
	return s, nil
}

// Window returns the window length the scorer was compiled for.
func (s *BatchScorer) Window() int { return s.w }

// Prepare normalizes n raw windows, given flat as [n][w][2] row-major
// counter values, into the input slot and returns the staged batch.
func (s *BatchScorer) Prepare(n int, flat []float64) *PreparedBatch {
	if len(flat) != n*s.w*2 {
		panic(fmt.Sprintf("dnn: Prepare got %d values, want %d windows x %d x 2", len(flat), n, s.w))
	}
	p := &s.prep
	x := ensureF32(&p.x, n*s.w*2)
	snormLog1p(x, flat, &s.nvec)
	p.n = n
	return p
}

// Score runs the full cascade on a prepared batch: the app stage
// classifies every window, the one-hot conditioned attack stage follows,
// and the argmax verdicts land in apps[i] and attacks[i]. Zero
// allocations at steady state; arena capacity sticks to the high-water
// batch size.
func (s *BatchScorer) Score(p *PreparedBatch, apps, attacks []int) {
	if p.owner != s {
		panic("dnn: PreparedBatch from a different scorer")
	}
	n := p.n
	if len(apps) < n || len(attacks) < n {
		panic(fmt.Sprintf("dnn: Score needs %d result slots, got %d/%d", n, len(apps), len(attacks)))
	}
	// Tile the batch so the forward pass's working set (conv ping-pong
	// buffers and friends, ~10KB per window) stays L2-resident: one
	// monolithic batch-256 pass streams megabytes through every layer and
	// loses more to cache misses than it gains in GEMM amortization.
	// Tiling cannot change results — batched-equals-looped holds at every
	// chunk size (see the determinism contract in kernels32.go).
	ca := 2 + s.numApps
	cond := ensureF32(&s.cond, min(n, scoreTile)*s.w*ca)
	// Logits cover the whole batch (callers read them after Score); the
	// per-tile forward passes write their slice of it.
	appLog := ensureF32(&s.app.logits, n*s.app.classes)
	atkLog := ensureF32(&s.atk.logits, n*s.atk.classes)
	for lo := 0; lo < n; lo += scoreTile {
		hi := min(lo+scoreTile, n)
		s.app.forward(hi-lo, p.x[lo*s.w*2:hi*s.w*2], apps[lo:hi], appLog[lo*s.app.classes:hi*s.app.classes])
		clear(cond[:(hi-lo)*s.w*ca])
		for b := lo; b < hi; b++ {
			hot := 2 + apps[b]
			for t := 0; t < s.w; t++ {
				src := p.x[(b*s.w+t)*2:]
				dst := cond[((b-lo)*s.w+t)*ca:]
				dst[0] = src[0]
				dst[1] = src[1]
				dst[hot] = 1
			}
		}
		s.atk.forward(hi-lo, cond, attacks[lo:hi], atkLog[lo*s.atk.classes:hi*s.atk.classes])
	}
}

// scoreTile bounds how many windows one forward pass carries. Chosen so
// the per-tile arena footprint sits comfortably inside a per-core L2
// while the GEMM panels stay wide enough to amortize kernel entry.
const scoreTile = 32

// ScoreFlat normalizes and scores n windows given flat as [n][w][2].
// Its zero-alloc contract binds Prepare and Score too, as the two
// functions it reaches.
//
//memdos:hotpath
func (s *BatchScorer) ScoreFlat(n int, flat []float64, apps, attacks []int) {
	s.Score(s.Prepare(n, flat), apps, attacks)
}

// ---- compiled model program ----

// modelProg is one LSTMFCN compiled to the float32 kernel layer.
type modelProg struct {
	T, cin, classes int

	convs [3]convProg

	// LSTM over the dimension-shuffled input: T' = cin steps of
	// T-dimensional observations. Weights stay in their natural [k][n]
	// storage order — exactly what the NN-form GEMM consumes.
	H, g4  int
	wx, wh []float32 // [T][4H], [H][4H]
	lb     []float32 // [4H]
	wa, va []float32 // [H][H], [H]

	fcnC, J    int       // FCN branch width, joint width fcnC+H
	outW, outB []float32 // [J][classes], [classes]

	// arenas (grow-once, high-water sized)
	bufA, bufB []float32 // conv ping-pong, [n][T][maxC]
	edge       []float32 // zero-padded conv edge rows
	shuf       []float32 // [n][cin][T]
	hs         []float32 // [n][cin][H]
	cs         []float32 // [n][H]
	pre        []float32 // [n][4H]
	tw         []float32 // [n][cin][H]
	attnBuf    []float32 // [cin]
	joint      []float32 // [n][J]: pooled FCN channels then attention ctx
	logits     []float32 // [n][classes]
}

// convProg is one convolution with its BatchNorm folded in, the weights
// transposed to the NN layout [k*in][out].
type convProg struct {
	in, out, k, half int
	w                []float32 // [k*in][out]
	b                []float32 // [out]
}

func compileModel(m *LSTMFCN, T int) (*modelProg, error) {
	if m.lstm == nil {
		return nil, fmt.Errorf("model LSTM branch not built")
	}
	if m.lstm.In != T {
		return nil, fmt.Errorf("model built for window %d, scorer wants %d", m.lstm.In, T)
	}
	p := &modelProg{
		T:       T,
		cin:     m.cfg.Channels,
		classes: m.cfg.Classes,
		H:       m.cfg.LSTMCells,
		fcnC:    m.fcnC,
	}
	p.g4 = numGates * p.H
	p.J = p.fcnC + p.H

	convs := [3]*Conv1D{m.conv1, m.conv2, m.conv3}
	bns := [3]*BatchNorm{m.bn1, m.bn2, m.bn3}
	for i := range convs {
		if T <= convs[i].K-1 {
			return nil, fmt.Errorf("window %d too short for kernel %d edge split", T, convs[i].K)
		}
		p.convs[i] = compileConv(convs[i], bns[i])
	}

	// LSTM gate weights, attention, and output dense are stored [k][n]
	// row-major in the training graph already — straight narrowing copies.
	l := m.lstm
	p.wx = f64to32(l.wx.W)
	p.wh = f64to32(l.wh.W)
	p.lb = f64to32(l.b.W)
	p.wa = f64to32(m.attn.wa.W)
	p.va = f64to32(m.attn.va.W)
	p.outW = f64to32(m.out.w.W)
	p.outB = f64to32(m.out.b.W)
	return p, nil
}

func compileConv(c *Conv1D, bn *BatchNorm) convProg {
	ki := c.K * c.In
	cp := convProg{in: c.In, out: c.Out, k: c.K, half: c.K / 2}
	cp.w = make([]float32, ki*c.Out)
	cp.b = make([]float32, c.Out)
	for o := 0; o < c.Out; o++ {
		g := bn.gamma.W[o] / math.Sqrt(bn.runVar[o]+bn.Eps)
		for j := 0; j < ki; j++ {
			cp.w[j*c.Out+o] = float32(c.w.W[o*ki+j] * g)
		}
		cp.b[o] = float32(bn.beta.W[o] + g*(c.b.W[o]-bn.runMean[o]))
	}
	return cp
}

func f64to32(src []float64) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// forward classifies n windows ([n][T][cin] in x) into out[0:n], writing
// raw class scores to logits ([n][classes], provided by the caller so a
// tiled Score can assemble the full batch's logits across calls).
func (p *modelProg) forward(n int, x []float32, out []int, logits []float32) {
	T, cin, H := p.T, p.cin, p.H

	// FCN branch: conv+foldedBN x3 into the ping-pong arenas, each ReLU
	// fused into its convolution's GEMM epilogue (every output element has
	// exactly one GEMM-panel writer, so clamping at the store is exact).
	maxC := cin
	for _, cp := range p.convs {
		maxC = max(maxC, cp.out)
	}
	bufA := ensureF32(&p.bufA, n*T*maxC)
	bufB := ensureF32(&p.bufB, n*T*maxC)
	p.convForward(&p.convs[0], n, x, bufA)
	p.convForward(&p.convs[1], n, bufA, bufB)
	p.convForward(&p.convs[2], n, bufB, bufA)

	// Global average pool straight into the joint rows.
	joint := ensureF32(&p.joint, n*p.J)
	fcnOut := p.convs[2].out
	invT := 1 / float32(T)
	for b := 0; b < n; b++ {
		jr := joint[b*p.J : b*p.J+fcnOut]
		clear(jr)
		for t := 0; t < T; t++ {
			saddTo(jr, bufA[(b*T+t)*fcnOut:(b*T+t+1)*fcnOut])
		}
		for c := range jr {
			jr[c] *= invT
		}
	}

	// Dimension shuffle: [n][T][cin] -> [n][cin][T].
	shuf := ensureF32(&p.shuf, n*cin*T)
	for b := 0; b < n; b++ {
		stransposeRows(shuf[b*cin*T:(b+1)*cin*T], x[b*T*cin:(b+1)*T*cin], T, cin)
	}

	// LSTM recurrence over cin steps of T-dimensional observations.
	hs := ensureF32(&p.hs, n*cin*H)
	cs := ensureF32(&p.cs, n*H)
	pre := ensureF32(&p.pre, n*p.g4)
	for t := 0; t < cin; t++ {
		sbiasRows(n, p.g4, pre, p.g4, p.lb)
		sgemm(n, p.g4, T, shuf[t*T:], cin*T, p.wx, p.g4, pre, p.g4, epiAdd)
		if t > 0 {
			sgemm(n, p.g4, H, hs[(t-1)*H:], cin*H, p.wh, p.g4, pre, p.g4, epiAdd)
		}
		for b := 0; b < n; b++ {
			pr := pre[b*p.g4 : (b+1)*p.g4]
			// Gate order is I, F, O, G: sigmoid on the first three blocks,
			// tanh on the last, each a single vectorized pass.
			vsigmoid(pr[gateI*H : (gateO+1)*H])
			vtanh(pr[gateG*H : (gateG+1)*H])
			ig := pr[gateI*H : gateI*H+H]
			fg := pr[gateF*H : gateF*H+H]
			og := pr[gateO*H : gateO*H+H]
			gg := pr[gateG*H : gateG*H+H]
			hr := hs[(b*cin+t)*H : (b*cin+t)*H+H]
			cr := cs[b*H : (b+1)*H]
			if t > 0 {
				for h := 0; h < H; h++ {
					cr[h] = ig[h]*gg[h] + fg[h]*cr[h]
				}
			} else {
				for h := 0; h < H; h++ {
					cr[h] = ig[h] * gg[h]
				}
			}
			copy(hr, cr)
			vtanh(hr)
			for h := 0; h < H; h++ {
				hr[h] *= og[h]
			}
		}
	}

	// Attention: scores from one fused GEMM + tanh·v epilogue, softmax,
	// context accumulated into the joint rows after the FCN channels.
	tw := ensureF32(&p.tw, n*cin*H)
	clear(tw)
	sgemm(n*cin, H, H, hs, H, p.wa, H, tw, H, epiAdd)
	scores := ensureF32(&p.attnBuf, cin)
	for b := 0; b < n; b++ {
		// Per-sample vtanh: the slice length (cin*H) is fixed by model
		// shape, so the SIMD/scalar dispatch cannot vary with batch size.
		vtanh(tw[b*cin*H : (b+1)*cin*H])
		for t := 0; t < cin; t++ {
			scores[t] = sdot(tw[(b*cin+t)*H:(b*cin+t+1)*H], p.va)
		}
		maxS := scores[0]
		for _, v := range scores[1:] {
			if v > maxS {
				maxS = v
			}
		}
		var sum float32
		for t := range scores {
			scores[t] = expf(scores[t] - maxS)
			sum += scores[t]
		}
		inv := 1 / sum
		ctx := joint[b*p.J+fcnOut : (b+1)*p.J]
		clear(ctx)
		for t := 0; t < cin; t++ {
			saxpy(scores[t]*inv, hs[(b*cin+t)*H:(b*cin+t+1)*H], ctx)
		}
	}

	// Output dense + argmax.
	sbiasRows(n, p.classes, logits, p.classes, p.outB)
	sgemm(n, p.classes, p.J, joint, p.J, p.outW, p.classes, logits, p.classes, epiAdd)
	for b := 0; b < n; b++ {
		out[b] = sargmax(logits[b*p.classes : (b+1)*p.classes])
	}
}

// edgeT maps an edge-row index e in [0, 2·half) to its time step: the
// first half rows at the window head, the rest at the tail.
func edgeT(e, T, half int) int {
	if e < half {
		return e
	}
	return T - 2*half + e
}

// convForward computes y = conv(x) with folded bias, [n][T][in] ->
// [n][T][out]. Interior rows read their receptive field directly from x
// (it is contiguous); edge rows go through the zero-padded staging
// arena.
func (p *modelProg) convForward(cp *convProg, n int, x, y []float32) {
	T := p.T
	in, out, K, half := cp.in, cp.out, cp.k, cp.half
	ki := K * in
	er := 2 * half

	// Stage the zero-padded edge rows for the whole batch.
	edge := ensureF32(&p.edge, n*er*ki)
	for b := 0; b < n; b++ {
		src := x[b*T*in : (b+1)*T*in]
		for e := 0; e < er; e++ {
			dst := edge[(b*er+e)*ki : (b*er+e+1)*ki]
			clear(dst)
			stageEdgeF32(dst, src, edgeT(e, T, half), T, K, half, in)
		}
	}

	sbiasRows(n*T, out, y, out, cp.b)

	if half < T-half {
		p.convInterior(cp, n, x, y)
	}
	// Edge rows are contiguous per side in both the staging arena and the
	// output, so each side is one GEMM panel per sample.
	for b := 0; b < n; b++ {
		sgemm(half, out, ki, edge[b*er*ki:], ki, cp.w, out, y[b*T*out:], out, epiAddRelu)
		sgemm(half, out, ki, edge[(b*er+half)*ki:], ki, cp.w, out, y[(b*T+T-half)*out:], out, epiAddRelu)
	}
}

// convInterior runs the interior output rows of the n samples as one
// GEMM panel per sample: consecutive rows' receptive fields overlap in x
// at stride `in`, which the panel expresses as lda=in.
func (p *modelProg) convInterior(cp *convProg, n int, x, y []float32) {
	T := p.T
	in, out, half := cp.in, cp.out, cp.half
	ki := cp.k * in
	inner := T - 2*half
	for b := 0; b < n; b++ {
		sgemm(inner, out, ki, x[b*T*in:], in, cp.w, out, y[(b*T+half)*out:], out, epiAddRelu)
	}
}

// stageEdgeF32 copies the valid taps of output row t into a zeroed
// [K*in] staging row.
func stageEdgeF32(dst, src []float32, t, T, K, half, in int) {
	lo := t - half
	d0 := 0
	if lo < 0 {
		d0 = -lo
	}
	d1 := K
	if over := t + half - (T - 1); over > 0 {
		d1 = K - over
	}
	copy(dst[d0*in:d1*in], src[(lo+d0)*in:(lo+d1)*in])
}

// ---- grow-once float32 arenas ----

func ensureF32(ws *[]float32, n int) []float32 {
	s := *ws
	if cap(s) < n {
		s = make([]float32, n)
		*ws = s
	}
	return s[:n]
}
