package dnn

import (
	"fmt"
	"math"
	"slices"
)

// BatchScorer is the cascade's production inference engine: a compiled,
// float32, allocation-free forward path that runs session windows
// through AVX2/FMA GEMM microkernels (kernels32). It exists because the
// training graph — float64, im2col copies, per-element BatchNorm, cached
// activations for backward — is an order of magnitude too slow to serve
// a fleet.
//
// Compilation folds each BatchNorm into its convolution (w' = w·γ/σ,
// b' = β + γ(b−μ)/σ), stages every weight matrix in the [k][n] layout
// the NN-form C += A·B kernel wants (for the LSTM, attention, and dense
// layers that is their natural storage order; only conv weights
// transpose), fuses the convolution ReLUs into the GEMM epilogue, and
// drops everything inference never reads: ReLU masks, dropout,
// activation caches. The attack stage's one-hot app channels, constant
// down the window, are folded away: in the LSTM as precomputed constant
// steps (preCold/preHot), in conv1 as one three-column conv1 per app
// (foldConv1). A model whose float32 values could leave float32 range
// does not compile (reach).
//
// A batch is normalized into the scorer's input slot and scored in tiles
// of scoreTile windows, each stage in two parts. The FCN branch runs one
// sample at a time through convRows, "output rows [lo, hi) of one
// sample": interior rows skip im2col entirely — a row's receptive field
// is already a contiguous slice of the layer's input — and only the K/2
// rows at a window end are staged zero-padded. The LSTM branch, the
// attention and the dense head then run over the tile as [n × ·] GEMM
// panels. ScoreFlat computes every conv row of every window;
// ScoreCarried keeps each session's last conv3 output in a Carry and,
// for a window that continues it, recomputes only the rows near the two
// window ends (see Carry). A scorer has one input slot and one set of
// arenas, so it serves one caller at a time; Fork makes another on the
// same weights for another caller.
//
// Determinism: the scorer inherits the kernel layer's schedule guarantee
// — a GEMM output row's bits do not depend on the panel it was computed
// in — so ScoreFlat over N windows is byte-identical to N batch-1 calls,
// and ScoreCarried is byte-identical to ScoreFlat, logits included.
type BatchScorer struct {
	w       int // window length
	numApps int

	nmean, ninv [2]float32 // folded ChannelNorm: x' = (log1p(x)-mean)*inv
	nvec        normVec    // the same, in the vector kernel's lane pattern

	app, atk *modelProg

	// the input slot Prepare stages: n windows, normalized, [n][w][2]
	n int
	x []float32
	// one tile's arenas
	shuf []float32      // dimension-shuffled counters [n][realChannels][w], both stages' LSTM input
	cond []float32      // attack-stage FCN input [n][w][realChannels+1]: the counters and a column of ones
	hot  [scoreTile]int // one-hot channel per window: realChannels + app verdict
}

// ScorerOptions is empty: the scorer has one numeric path. The type
// remains because the constructors' callers pass it.
type ScorerOptions struct{}

// NewBatchScorer compiles the cascade for the given window length. The
// cascade must have fitted normalization statistics (train or load
// first); its lazily built LSTM branches are materialized here if needed,
// the one write compiling makes to the cascade (see Cascade). Returns an
// error for windows shorter than a convolution kernel, where the compiled
// edge/interior split does not apply.
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
	s := &BatchScorer{w: window, numApps: c.NumApps}
	// in bounds a normalized input: a finite non-negative float32 counter
	// has 0 <= log1p <= ln(MaxFloat32), and the ones column is 1.
	in := 1.0
	for ch := 0; ch < 2; ch++ {
		s.nmean[ch] = float32(c.Norm.Mean[ch])
		s.ninv[ch] = float32(1 / c.Norm.Std[ch])
		mean, inv := float64(s.nmean[ch]), float64(s.ninv[ch])
		in = max(in, math.Abs(mean)*inv, math.Abs(math.Log(math.MaxFloat32)-mean)*inv)
	}
	s.nvec = makeNormVec(s.nmean, s.ninv)
	var err error
	if s.app, err = compileModel(c.App, window, stageApp, in); err != nil {
		return nil, fmt.Errorf("dnn: compiling app stage: %w", err)
	}
	if s.atk, err = compileModel(c.Attack, window, stageAttack, in); err != nil {
		return nil, fmt.Errorf("dnn: compiling attack stage: %w", err)
	}
	return s, nil
}

// Fork returns a scorer on s's compiled weights, which scoring only
// reads, with an input slot and arenas of its own: s and the fork may
// score on two goroutines at once, each with s's verdicts and logits
// bit for bit. Nothing is compiled again, and the fork's arenas grow on
// its first use. A carry made by either serves either, but, like a
// scorer, one caller at a time.
func (s *BatchScorer) Fork() *BatchScorer {
	return &BatchScorer{w: s.w, numApps: s.numApps, nmean: s.nmean, ninv: s.ninv, nvec: s.nvec,
		app: s.app.fork(), atk: s.atk.fork()}
}

// Window returns the window length the scorer was compiled for.
func (s *BatchScorer) Window() int { return s.w }

// Prepare normalizes n raw windows, given flat as [n][w][2] row-major
// counter values, into the scorer's input slot.
func (s *BatchScorer) Prepare(n int, flat []float64) {
	if len(flat) != n*s.w*2 {
		panic(fmt.Sprintf("dnn: Prepare got %d values, want %d windows x %d x 2", len(flat), n, s.w))
	}
	snormLog1p(ensureF32(&s.x, n*s.w*2), flat, &s.nvec)
	s.n = n
}

// score runs the full cascade on the staged batch: the app stage
// classifies every window, the one-hot conditioned attack stage follows,
// and the argmax verdicts land in apps[i] and attacks[i]. carry and ord
// are the sessions' carries (nil for stateless scoring); it returns how
// many windows reused carried rows in both stages. Zero allocations at
// steady state; arena capacity sticks to the high-water batch size.
func (s *BatchScorer) score(carry []*Carry, ord []uint64, apps, attacks []int) (continued int) {
	n := s.n
	if len(apps) < n || len(attacks) < n {
		panic(fmt.Sprintf("dnn: scoring needs %d result slots, got %d/%d", n, len(apps), len(attacks)))
	}
	// Tile the batch: the LSTM branch and the heads run as GEMM panels a
	// tile tall, wide enough to amortize kernel entry, while the tile's
	// arenas (attack FCN input, LSTM states; ~12KB per window at the
	// compact config) stay L2-resident. The tile is also the unit the
	// cascade is sequenced by: a window's attack stage may reuse its
	// session's slab only under the app verdict of that same window, so
	// the app stage of a tile completes before its attack stage starts.
	// Tiling cannot change results — batched-equals-looped holds at every
	// chunk size (see the determinism contract in kernels32.go).
	const r = realChannels
	tile := min(n, scoreTile)
	shuf := ensureF32(&s.shuf, tile*r*s.w)
	cond := ensureF32(&s.cond, tile*s.w*(r+1))
	// Logits cover the whole batch (callers read them after scoring); the
	// per-tile forward passes write their slice of it.
	appLog := ensureF32(&s.app.logits, n*s.app.classes)
	atkLog := ensureF32(&s.atk.logits, n*s.atk.classes)
	for lo := 0; lo < n; lo += scoreTile {
		hi := min(lo+scoreTile, n)
		x := s.x[lo*s.w*r : hi*s.w*r]
		var tc []*Carry
		var to []uint64
		if carry != nil {
			tc, to = carry[lo:hi], ord[lo:hi]
		}
		// Dimension shuffle: [n][w][r] -> [n][r][w].
		for b := 0; b < hi-lo; b++ {
			stransposeRows(shuf[b*r*s.w:(b+1)*r*s.w], x[b*s.w*r:(b+1)*s.w*r], s.w, r)
		}
		s.app.forward(hi-lo, x, shuf, nil, tc, to, apps[lo:hi], appLog[lo*s.app.classes:hi*s.app.classes])
		hot := s.hot[:hi-lo]
		for b := range hot {
			hot[b] = r + apps[lo+b]
		}
		for i := 0; i < (hi-lo)*s.w; i++ {
			cond[i*(r+1)], cond[i*(r+1)+1], cond[i*(r+1)+2] = x[i*r], x[i*r+1], 1
		}
		continued += s.atk.forward(hi-lo, cond, shuf, hot, tc, to, attacks[lo:hi], atkLog[lo*s.atk.classes:hi*s.atk.classes])
	}
	return continued
}

// scoreTile bounds how many windows one forward pass carries. Chosen so
// the per-tile arena footprint sits comfortably inside a per-core L2
// while the GEMM panels stay wide enough to amortize kernel entry.
const scoreTile = 32

// ScoreFlat normalizes and scores n windows given flat as [n][w][2].
// Its zero-alloc contract binds Prepare and score too, as the two
// functions it reaches.
//
//memdos:hotpath
func (s *BatchScorer) ScoreFlat(n int, flat []float64, apps, attacks []int) {
	s.Prepare(n, flat)
	s.score(nil, nil, apps, attacks)
}

// ---- sliding-window carry ----

// Carry is what one session keeps between consecutive windows of its
// stream: per stage, the FCN branch's conv3 output over the last window
// scored. Away from the zero-padded window ends the branch is
// shift-invariant — a conv3 row more than halo = ΣK/2 positions from
// either end is the same number in the next window, stride rows earlier
// — so a window that continues the carry moves those rows down and
// computes only the halo rows at the head and the halo+stride rows at
// the tail. Nothing of conv1/conv2 is kept: the few rows of them the
// recomputed ends need are cheaper to redo from the raw window than to
// hold. When stride >= T − 2·halo no row survives and no slab is
// allocated. A Carry serves the scorer that made it and that scorer's
// forks and, like a scorer, one caller at a time.
type Carry struct {
	stride int
	stage  [2]slab
}

// slab is one stage's carried conv3 output and what it is valid for.
type slab struct {
	rows []float32 // [T][fcnOut]; nil when the stride leaves nothing to carry
	seen uint64    // ordinal of the window rows holds; 0 before the first
	hot  int       // attack stage: the one-hot channel rows was computed under
}

// take records that the slab now holds window ord under condition hot
// and reports whether that window continues the one held before: the
// next ordinal (a gap is a shed window, whose rows were never computed)
// under the same condition (the attack stage's input carries the app
// verdict in every row, so a flipped verdict changes every row).
func (st *slab) take(ord uint64, hot int) bool {
	ok := st.seen != 0 && ord == st.seen+1 && hot == st.hot
	st.seen, st.hot = ord, hot
	return ok
}

// NewCarry returns an empty carry for a session whose consecutive windows
// start stride samples apart.
func (s *BatchScorer) NewCarry(stride int) *Carry {
	c := &Carry{stride: stride}
	for i, p := range [2]*modelProg{s.app, s.atk} {
		if stride > 0 && stride < p.T-2*p.halo {
			c.stage[i].rows = make([]float32, p.T*p.fcnOut)
		}
	}
	return c
}

// Bytes returns the size of the carried slabs.
func (c *Carry) Bytes() int {
	return 4 * (len(c.stage[stageApp].rows) + len(c.stage[stageAttack].rows))
}

// ScoreCarried is ScoreFlat for windows cut from sessions' sliding
// streams: window i is the ord[i]-th window (counting from 1, windows
// that were never scored included) of the session that owns carry[i],
// made by this scorer's NewCarry. Windows of one session must appear in
// stream order, within a call and across calls; the same carry may appear
// more than once in a call. Verdicts and logits are byte-identical to
// ScoreFlat's. It returns how many windows recomputed only their ends in
// both stages; with the carries allocated it does not allocate.
//
//memdos:hotpath
func (s *BatchScorer) ScoreCarried(n int, flat []float64, carry []*Carry, ord []uint64, apps, attacks []int) int {
	if len(carry) != n || len(ord) != n {
		panic(fmt.Sprintf("dnn: ScoreCarried got %d carries and %d ordinals for %d windows", len(carry), len(ord), n))
	}
	s.Prepare(n, flat)
	return s.score(carry, ord, apps, attacks)
}

// ---- compiled model program ----

// The cascade's two stages, as indices into Carry.stage.
const (
	stageApp = iota
	stageAttack
)

// realChannels is how many leading input channels vary over the window:
// the two counters. Whatever follows them is the attack stage's one-hot
// app condition, constant down each column, which compiling folds away.
const realChannels = 2

// modelProg is one LSTMFCN compiled to the float32 kernel layer.
type modelProg struct {
	stage      int // stageApp or stageAttack
	T, classes int
	cin        int // input channels: the LSTM's steps
	fin        int // FCN input width: the counters, plus a ones column in the attack stage

	// convs[0] is conv1 over fin input columns. conv1 is the conv1 a
	// window runs under: one per app condition in the attack stage (see
	// foldConv1), convs[0] alone in the app stage.
	convs  [3]convProg
	conv1  []convProg
	halo   int       // ΣK/2: conv3 rows this close to a window end see its zero padding
	fcnOut int       // conv3 channels
	ones   []float32 // [T] of 1: the pooling GEMM row, the hot LSTM step

	// LSTM over the dimension-shuffled input: T' = cin steps of
	// T-dimensional observations. Weights stay in their natural [k][n]
	// storage order — exactly what the NN-form GEMM consumes.
	H, g4  int
	wx, wh []float32 // [T][4H], [H][4H]
	lb     []float32 // [4H]
	wa, va []float32 // [H][H], [H]
	// The pre-activation row lb + x·wx of a step whose observation is all
	// zeros (cold) or all ones (hot): every step past the real channels.
	preCold, preHot []float32 // [4H]

	J          int       // joint width fcnOut+H
	outW, outB []float32 // [J][classes], [classes]

	// Everything above is read-only once compiled and shared by forks;
	// the arenas are each program's own.
	progArenas
}

// progArenas is what one modelProg writes while scoring: grow-once
// buffers, sized by their first use (the per-tile ones to the high-water
// batch).
type progArenas struct {
	// per-sample FCN arenas
	bufA, bufB []float32 // conv1 and conv2 output, [T][out]
	edge       []float32 // zero-padded rows of one window end
	rows       []float32 // conv3 output of a window with no slab, [T][fcnOut]

	// per-tile arenas
	hs      []float32 // [n][cin][H]
	cs      []float32 // [n][H]
	pre     []float32 // [n][4H]
	tw      []float32 // [n][cin][H]
	attnBuf []float32 // [cin]
	joint   []float32 // [n][J]: pooled FCN channels then attention ctx
	logits  []float32 // [n][classes]
}

// fork returns a program on p's weights with arenas of its own.
func (p *modelProg) fork() *modelProg {
	f := *p
	f.progArenas = progArenas{}
	return &f
}

// convProg is one convolution with its BatchNorm folded in, the weights
// transposed to the NN layout [k*in][out].
type convProg struct {
	in, out, k, half int
	w                []float32 // [k*in][out]
	b                []float32 // [out]
}

// compileModel compiles one stage whose inputs lie within ±in (see reach).
func compileModel(m *LSTMFCN, T, stage int, in float64) (*modelProg, error) {
	if m.lstm == nil {
		return nil, fmt.Errorf("model LSTM branch not built")
	}
	if m.lstm.In != T {
		return nil, fmt.Errorf("model built for window %d, scorer wants %d", m.lstm.In, T)
	}
	p := &modelProg{
		stage:   stage,
		T:       T,
		cin:     m.cfg.Channels,
		classes: m.cfg.Classes,
		H:       m.cfg.LSTMCells,
	}
	p.g4 = numGates * p.H

	convs := [3]*Conv1D{m.conv1, m.conv2, m.conv3}
	bns := [3]*BatchNorm{m.bn1, m.bn2, m.bn3}
	for i := range convs {
		if T <= convs[i].K-1 {
			return nil, fmt.Errorf("window %d too short for kernel %d edge split", T, convs[i].K)
		}
		p.convs[i] = compileConv(convs[i], bns[i])
	}
	p.conv1 = p.convs[:1]
	if stage == stageAttack {
		p.conv1 = foldConv1(p.convs[0], p.cin-realChannels)
		p.convs[0] = p.conv1[0]
	}
	p.fin = p.convs[0].in
	for _, cp := range p.convs {
		p.halo += cp.half
	}
	p.fcnOut = p.convs[2].out
	p.ones = make([]float32, T)
	for i := range p.ones {
		p.ones[i] = 1
	}
	p.J = p.fcnOut + p.H

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

	// The constant steps' pre-activations come out of the very GEMM they
	// stand in for, so they carry its bits under either kernel.
	p.preCold = append([]float32(nil), p.lb...)
	sgemm(1, p.g4, T, make([]float32, T), T, p.wx, p.g4, p.preCold, p.g4, epiAdd)
	p.preHot = append([]float32(nil), p.lb...)
	sgemm(1, p.g4, T, p.ones, T, p.wx, p.g4, p.preHot, p.g4, epiAdd)

	if r := p.reach(in); !(r < math.MaxFloat32/2) {
		return nil, fmt.Errorf("values can reach %g, past float32 range: the model is corrupt", r)
	}
	return p, nil
}

// reach bounds the magnitude of every value the forward pass computes for
// inputs within ±in, layer by layer. It is NaN or Inf when a compiled
// weight is not finite (say, from a negative running variance), and past
// float32 range when finite weights can still overflow (a huge BatchNorm
// scale); either would serve ±Inf or NaN logits. Finite weights also
// keep conv1's fold exact.
func (p *modelProg) reach(in float64) float64 {
	y := 0.0
	for _, c1 := range p.conv1 {
		y = max(y, affineBound(c1.w, c1.b, len(c1.b), in))
	}
	r := y
	for _, cp := range p.convs[1:] {
		y = affineBound(cp.w, cp.b, len(cp.b), y)
		r = max(r, y)
	}
	r = max(r, float64(p.T)*y) // the pooling sum
	// LSTM pre-activations and attention: h, tanh and the softmax weights
	// lie within ±1.
	r = max(r, affineBound(p.wx, p.lb, p.g4, in)+affineBound(p.wh, nil, p.g4, 1),
		affineBound(p.wa, nil, p.H, 1), affineBound(p.va, nil, 1, 1))
	return max(r, affineBound(p.outW, p.outB, p.classes, max(y, 1)))
}

// affineBound bounds |b + x·w| for w stored [k][n] over inputs |x_k| <=
// in: the largest |b_j| + in·Σ_k |w_kj|. b may be nil.
func affineBound(w, b []float32, n int, in float64) float64 {
	col := make([]float64, n)
	for j, v := range b {
		col[j] = math.Abs(float64(v))
	}
	for k := 0; k < len(w); k += n {
		for j, v := range w[k : k+n] {
			col[j] += in * math.Abs(float64(v))
		}
	}
	return slices.Max(col)
}

// foldConv1 folds the attack stage's one-hot app channels into conv1,
// once per app: conv1 under app a reads the two counters and a column of
// ones, and that column's tap rows are the one-hot channel's. A window's
// dropped channels are all zero, and each output element's GEMM chain
// runs the kept terms in the same ascending order, so the outputs are
// bit-identical to conv1 over the one-hot input (adding 0·w to a chain
// is exact for the finite w compileModel insists on).
func foldConv1(cp convProg, apps int) []convProg {
	const r = realChannels
	folded := make([]convProg, apps)
	for a := range folded {
		f := convProg{in: r + 1, out: cp.out, k: cp.k, half: cp.half, b: cp.b}
		f.w = make([]float32, cp.k*f.in*cp.out)
		for t := 0; t < cp.k; t++ {
			for ch, src := range [r + 1]int{0, 1, r + a} {
				copy(f.w[(t*f.in+ch)*cp.out:][:cp.out], cp.w[(t*cp.in+src)*cp.out:])
			}
		}
		folded[a] = f
	}
	return folded
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

// forward classifies n windows ([n][T][fin] in x) into out[0:n], writing
// raw class scores to logits ([n][classes], provided by the caller so a
// tiled Score can assemble the full batch's logits across calls). shuf
// is the windows' counter channels dimension-shuffled,
// [n][realChannels][T]; hot[b] is window b's one-hot channel among the
// LSTM's steps, which picks its folded conv1 (nil in the app stage,
// which has none). carry and ord are the
// windows' sessions and ordinals, nil for stateless scoring. Returns how
// many windows reused their session's slab.
func (p *modelProg) forward(n int, x, shuf []float32, hot []int, carry []*Carry, ord []uint64, out []int, logits []float32) (continued int) {
	T, cin, H := p.T, p.cin, p.H

	// FCN branch, one sample at a time in queue order: a session's next
	// window may sit later in this very tile, and continues the slab this
	// one leaves behind. Pooled channels go straight into the joint rows.
	joint := ensureF32(&p.joint, n*p.J)
	own := ensureF32(&p.rows, T*p.fcnOut)
	for b := 0; b < n; b++ {
		rows, stride := own, 0
		h, c1 := 0, &p.conv1[0]
		if hot != nil {
			h, c1 = hot[b], &p.conv1[hot[b]-realChannels]
		}
		if carry != nil && carry[b].stage[p.stage].rows != nil {
			st := &carry[b].stage[p.stage]
			rows = st.rows
			if st.take(ord[b], h) {
				stride = carry[b].stride
				continued++
			}
		}
		p.fcn(c1, x[b*T*p.fin:(b+1)*T*p.fin], rows, stride, joint[b*p.J:b*p.J+p.fcnOut])
	}

	// LSTM recurrence over cin steps of T-dimensional observations. A
	// step past the real channels observes a constant column — all ones
	// for the window's hot channel, all zeros otherwise — whose input
	// GEMM row was computed once at compile time.
	hs := ensureF32(&p.hs, n*cin*H)
	cs := ensureF32(&p.cs, n*H)
	pre := ensureF32(&p.pre, n*p.g4)
	const r = realChannels
	for t := 0; t < cin; t++ {
		if t < r {
			sbiasRows(n, p.g4, pre, p.lb)
			sgemm(n, p.g4, T, shuf[t*T:], r*T, p.wx, p.g4, pre, p.g4, epiAdd)
		} else {
			for b := 0; b < n; b++ {
				src := p.preCold
				if hot[b] == t {
					src = p.preHot
				}
				copy(pre[b*p.g4:(b+1)*p.g4], src)
			}
		}
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
		ctx := joint[b*p.J+p.fcnOut : (b+1)*p.J]
		clear(ctx)
		for t := 0; t < cin; t++ {
			saxpy(scores[t]*inv, hs[(b*cin+t)*H:(b*cin+t+1)*H], ctx)
		}
	}

	// Output dense + argmax.
	sbiasRows(n, p.classes, logits, p.outB)
	sgemm(n, p.classes, p.J, joint, p.J, p.outW, p.classes, logits, p.classes, epiAdd)
	for b := 0; b < n; b++ {
		out[b] = sargmax(logits[b*p.classes : (b+1)*p.classes])
	}
	return continued
}

// fcn runs the FCN branch, with c1 as its conv1, on one window x
// ([T][fin]): conv3 output into rows ([T][fcnOut]), its global average
// into pooled. stride 0 computes every row. stride > 0 says rows holds
// the conv3 output of the window that started stride samples earlier:
// the rows clear of both windows' padding move down by stride and only
// the two ends are computed.
func (p *modelProg) fcn(c1 *convProg, x, rows []float32, stride int, pooled []float32) {
	T, c, out := p.T, p.halo, p.fcnOut
	if stride > 0 {
		copy(rows[c*out:(T-c-stride)*out], rows[(c+stride)*out:(T-c)*out])
		p.conv3Rows(c1, x, rows, 0, c)
		p.conv3Rows(c1, x, rows, T-c-stride, T)
	} else {
		p.conv3Rows(c1, x, rows, 0, T)
	}
	// Global average pool as one GEMM row, ones·rows: from zero in
	// ascending t whichever way the rows got there, and 1·r + acc rounds
	// as acc + r does.
	clear(pooled)
	sgemm(1, out, T, p.ones, T, rows, out, pooled, out, epiAdd)
	invT := 1 / float32(T)
	for ch := range pooled {
		pooled[ch] *= invT
	}
}

// conv3Rows computes conv3 output rows [lo, hi) of one window into y,
// through the conv1 (c1) and conv2 rows they depend on: K/2 further out
// per layer, clipped to the window.
func (p *modelProg) conv3Rows(c1 *convProg, x, y []float32, lo, hi int) {
	lo2, hi2 := max(lo-p.convs[2].half, 0), min(hi+p.convs[2].half, p.T)
	lo1, hi1 := max(lo2-p.convs[1].half, 0), min(hi2+p.convs[1].half, p.T)
	bufA := ensureF32(&p.bufA, p.T*c1.out)
	bufB := ensureF32(&p.bufB, p.T*p.convs[1].out)
	p.convRows(c1, x, bufA, lo1, hi1)
	p.convRows(&p.convs[1], bufA, bufB, lo2, hi2)
	p.convRows(&p.convs[2], bufB, y, lo, hi)
}

// convRows computes output rows [lo, hi) of y = relu(conv(x) + b) for
// one window, [T][in] -> [T][out]; it reads x rows [lo-K/2, hi+K/2)
// where they exist. Interior rows are one GEMM panel reading x in place:
// consecutive rows' receptive fields overlap in x at stride `in`, which
// the panel expresses as lda=in. Rows within K/2 of a window end go
// through the zero-padded staging arena, one panel per end. Each ReLU is
// fused into the GEMM epilogue (every output element has exactly one
// panel writing it, so clamping at the store is exact).
func (p *modelProg) convRows(cp *convProg, x, y []float32, lo, hi int) {
	T, half, out := p.T, cp.half, cp.out
	sbiasRows(hi-lo, out, y[lo*out:], cp.b)
	p.convEdge(cp, x, y, lo, min(hi, half))
	if iLo, iHi := max(lo, half), min(hi, T-half); iLo < iHi {
		sgemm(iHi-iLo, out, cp.k*cp.in, x[(iLo-half)*cp.in:], cp.in, cp.w, out, y[iLo*out:], out, epiAddRelu)
	}
	p.convEdge(cp, x, y, max(lo, T-half), hi)
}

// convEdge is convRows for rows [lo, hi) that all lie within K/2 of one
// window end.
func (p *modelProg) convEdge(cp *convProg, x, y []float32, lo, hi int) {
	if lo >= hi {
		return
	}
	ki := cp.k * cp.in
	edge := ensureF32(&p.edge, (hi-lo)*ki)
	clear(edge)
	for t := lo; t < hi; t++ {
		stageEdgeF32(edge[(t-lo)*ki:(t-lo+1)*ki], x, t, p.T, cp.k, cp.half, cp.in)
	}
	sgemm(hi-lo, cp.out, ki, edge, ki, cp.w, cp.out, y[lo*cp.out:], cp.out, epiAddRelu)
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
