package dnn

import (
	"fmt"
	"sync"

	"memdos/internal/sim"
)

// Data-parallel minibatch training. Every minibatch is split into
// cfg.GradShards contiguous shards; shard j is always processed by model
// replica j, which forwards and backwards its shard concurrently with the
// others. The per-replica gradients are then reduced into the master model
// in fixed shard order, weighted by shard size, and the optimizer steps the
// master once.
//
// Semantics: for every layer except BatchNorm the reduced gradient equals
// the full-batch gradient exactly (SoftmaxCrossEntropy produces mean-over-
// batch gradients, and a shard-size-weighted sum of shard means is the
// batch mean). BatchNorm normalizes over its shard rather than the full
// batch — the "ghost batch" semantics standard in data-parallel training —
// so GradShards > 1 is a different (still fully deterministic) training
// trajectory than the serial path. GradShards therefore defaults to off:
// results depend only on the configured shard count, never on GOMAXPROCS
// or goroutine scheduling, but shard count is part of the experiment
// configuration, not a runtime convenience.

// shardBounds returns the [lo, hi) range of shard j when n items are split
// into s contiguous shards, the first n%s shards taking one extra item.
func shardBounds(n, s, j int) (int, int) {
	base := n / s
	extra := n % s
	lo := j*base + min(j, extra)
	size := base
	if j < extra {
		size++
	}
	return lo, lo + size
}

// copyRunningStats copies src's BatchNorm running statistics into m. The
// master model never runs a training forward under data-parallel training,
// so it inherits the stats stream of the replica that always sees shard 0.
func (m *LSTMFCN) copyRunningStats(src *LSTMFCN) {
	dst := []*BatchNorm{m.bn1, m.bn2, m.bn3}
	from := []*BatchNorm{src.bn1, src.bn2, src.bn3}
	for i := range dst {
		copy(dst[i].runMean, from[i].runMean)
		copy(dst[i].runVar, from[i].runVar)
	}
}

// dataParallelStep is Train's step at GradShards > 1: it builds one
// replica of m per shard and returns the step that shards a minibatch
// across them and reduces their gradients into m.
func dataParallelStep(m *LSTMFCN, train *Dataset, opt *Adam, cfg TrainConfig) (trainStep, error) {
	shards := cfg.GradShards

	// Warm the master once in inference mode so the lazily built LSTM
	// exists (no weight or running-stat side effects), then replicate.
	x0, _ := train.batchTensor([]int{0})
	m.Forward(x0, false)
	snap, err := m.snapshot()
	if err != nil {
		return nil, err
	}
	reps := make([]*LSTMFCN, shards)
	repPs := make([][]*Param, shards)
	masterPs := m.Params()
	for j := range reps {
		// Distinct construction seeds decorrelate the replicas' dropout
		// streams; restore overwrites the weights with the master's.
		r, err := NewLSTMFCN(m.cfg, sim.NewRNG(cfg.Seed^uint64(0xd00d+j)))
		if err != nil {
			return nil, err
		}
		if err := r.restore(snap); err != nil {
			return nil, err
		}
		reps[j] = r
		repPs[j] = r.Params()
		if len(repPs[j]) != len(masterPs) {
			return nil, fmt.Errorf("dnn: replica has %d params, master %d", len(repPs[j]), len(masterPs))
		}
	}

	type shardOut struct {
		loss    float64
		correct int
		n       int
	}
	outs := make([]shardOut, shards)

	// Per-replica batch and loss workspaces: shard j always runs on replica
	// j, so each goroutine reuses its own buffers across all batches.
	repX := make([]*Tensor, shards)
	repY := make([][]int, shards)
	repLoss := make([]LossBuffers, shards)

	return func(batch []int) (float64, int) {
		var wg sync.WaitGroup
		for j := 0; j < shards; j++ {
			slo, shi := shardBounds(len(batch), shards, j)
			outs[j] = shardOut{}
			if slo >= shi {
				continue
			}
			wg.Add(1)
			go func(j, slo, shi int) {
				defer wg.Done()
				for k, p := range repPs[j] {
					copy(p.W, masterPs[k].W)
					p.ZeroGrad()
				}
				repX[j], repY[j] = train.batchTensorInto(repX[j], repY[j], batch[slo:shi])
				x, y := repX[j], repY[j]
				logits := reps[j].Forward(x, true)
				loss, probs, grad := repLoss[j].SoftmaxCrossEntropy(logits, y)
				reps[j].Backward(grad)
				outs[j] = shardOut{loss: loss, correct: hits(probs, y), n: shi - slo}
			}(j, slo, shi)
		}
		wg.Wait()

		// Reduce in fixed shard order so the sum is independent of
		// which goroutine finished first.
		for _, p := range masterPs {
			p.ZeroGrad()
		}
		batchN := float64(len(batch))
		var batchLoss float64
		correct := 0
		for j := 0; j < shards; j++ {
			if outs[j].n == 0 {
				continue
			}
			w := float64(outs[j].n) / batchN
			batchLoss += w * outs[j].loss
			for k, p := range masterPs {
				g := repPs[j][k].Grad
				for i := range p.Grad {
					p.Grad[i] += w * g[i]
				}
			}
			correct += outs[j].correct
		}
		// Shard 0 is never empty while the batch is non-empty, so the
		// master's inference statistics follow replica 0's stream.
		m.copyRunningStats(reps[0])
		opt.Step(masterPs)
		return batchLoss, correct
	}, nil
}
