// Package par provides the bounded worker pool shared by the experiment
// harness (internal/experiments), the datacenter simulator
// (internal/cluster) and the cascade trainer (internal/dnn, whose two
// stages train as two cells). It owns the process-wide default
// parallelism knob (the CLI's -parallel flag) so every layer honors the
// same setting.
//
// The pool's central guarantee is determinism by construction: Do hands
// out cell indices and callers merge results by index, so the merged
// output is byte-identical to a serial run regardless of the worker
// count or goroutine scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner fans independent cells across a bounded worker pool. Each cell
// must be self-contained (no shared mutable state with other cells), so
// cells can run on any worker in any order without affecting each
// other's output. Results are merged by cell index, which makes the
// merged output byte-identical to a serial run regardless of the worker
// count or scheduling — the property the determinism tests pin down.
type Runner struct {
	// Workers caps the pool size; 0 means Parallelism() (which defaults
	// to runtime.NumCPU()).
	Workers int
}

// parallelism is the process-wide default worker count; 0 means
// runtime.NumCPU(). Tests and the CLI override it via SetParallelism.
var parallelism atomic.Int32

// SetParallelism sets the process-wide default worker count used by
// DefaultRunner (0 restores the NumCPU default) and returns the previous
// value, so tests can restore it.
func SetParallelism(n int) int {
	old := parallelism.Swap(int32(n))
	return int(old)
}

// Parallelism returns the effective default worker count.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// DefaultRunner returns a runner with the process-wide default pool size.
func DefaultRunner() Runner { return Runner{} }

// workers resolves the effective pool size for n cells.
func (r Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = Parallelism()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(i) for every cell i in [0, n) on the pool and waits for all
// of them. If any cell fails, the error of the lowest-index failing cell
// is returned (the same error a serial loop would have hit first), and
// cells that have not started yet are skipped.
//
// Cells are claimed one index at a time, so neighbouring indices run on
// different workers at once. A caller whose cells write index-adjacent
// heap state on every iteration should hand each worker a range.
func (r Runner) Do(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := r.workers(n)
	if w == 1 {
		// Inline fast path: no goroutines, exactly the serial loop.
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		errIdx  = -1
		firstEr error
		wg      sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// MapCells runs fn over n cells on the runner's pool and returns the
// results indexed by cell, so the merged slice is identical to a serial
// loop's output for any worker count.
func MapCells[T any](r Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := r.Do(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
