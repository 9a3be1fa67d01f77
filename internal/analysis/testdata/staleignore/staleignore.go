// Package staleignore is golden-file input for the stale-suppression
// audit: a //memdos:ignore comment that suppresses nothing, or that names
// no check or states no reason, is itself a diagnostic (pseudo-check
// "staleignore", exit status 2). The package keeps one live finding and
// one live suppression so the audit's used/unused distinction is pinned,
// not just the unused half.
package staleignore

// spin never returns, so every goroutine running it leaks.
func spin() {
	for {
	}
}

// Leak has the live finding the corpus needs to fail memdos-vet.
func Leak() {
	go spin() // want `goroutine spin loops forever with no shutdown path`
}

// Resident has a live suppression: the entry matches a finding, so the
// audit must not report it.
func Resident() {
	go spin() //memdos:ignore golife a process-lifetime worker that nothing stops // wantsup `goroutine spin loops forever`
}

// Quiet carries two dead suppressions: one whose check finds nothing on
// its line, one naming a check that does not exist.
func Quiet(x, y int) int {
	sum := x + y //memdos:ignore golife this line spawned a goroutine before the refactor // wantstale `suppression for golife matches no finding; the justified code is gone`
	gap := x - y //memdos:ignore nosuchcheck typo'd check name that can never match // wantstale `suppression names unknown check "nosuchcheck"`
	return sum * gap
}

// Unexplained carries two suppressions that do not say why their
// finding is safe: one names a check but gives no reason, one names
// nothing. Neither suppresses the finding on its line. The markers sit
// in a block comment ahead of the directive, because text after the
// directive would read as its reason.
func Unexplained() {
	go spin() /* // want `goroutine spin loops forever` // wantstale `suppression for golife states no reason` */ //memdos:ignore golife

	go spin() /* // want `goroutine spin loops forever` // wantstale `suppression names no check` */ //memdos:ignore
}
