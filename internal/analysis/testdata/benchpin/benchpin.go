// Package benchpin is golden-file input for the benchpin check: every
// annotated //memdos:hotpath function needs a pin that would catch an
// allocation creeping in — a testing.AllocsPerRun test in the package.
package benchpin

// Unpinned carries the contract but nothing enforces it.
//
//memdos:hotpath
func Unpinned(xs []float64) float64 { // want `hotpath Unpinned has no zero-alloc pin: no testing\.AllocsPerRun test in the package references it$`
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// TimedOnly names a timing benchmark in its directive. Whatever follows
// the directive is rationale, not a pin: a timing cannot see an
// allocation.
//
//memdos:hotpath timed-by=BenchmarkTimedOnly
func TimedOnly() int { // want `hotpath TimedOnly has no zero-alloc pin: no testing\.AllocsPerRun test in the package references it$`
	return 2
}

// Tested is pinned by the AllocsPerRun test in benchpin_test.go.
//
//memdos:hotpath
func Tested(xs []float64) float64 {
	return accumulate(xs)
}

// accumulate is only called from Tested, never named in a test: the
// root's pin measures it, so it needs no pin (and no finding) of its own.
func accumulate(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// Waived documents why no pin exists; the justification keeps it
// auditable.
//
//memdos:hotpath
func Waived() int { //memdos:ignore benchpin exercised end-to-end by the daemon soak harness, which asserts zero steady-state allocations // wantsup `hotpath Waived has no zero-alloc pin`
	return 3
}
