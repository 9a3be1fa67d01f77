// Package analysis is memdos-vet's static-analysis framework: a small,
// stdlib-only (go/ast + go/types) driver that runs project-specific
// checkers over type-checked packages and reports diagnostics.
//
// The checkers mechanically enforce the contracts no test or pin can
// see (see DESIGN.md "Determinism & analysis contract"): the
// deterministic core must not read wall clocks or the global math/rand
// source and must not let map iteration order leak into results;
// mutex-guarded fields are touched only by functions that lock them;
// every goroutine can be stopped; and every //memdos:hotpath function
// has an allocation pin.
//
// A finding can be suppressed where it is provably or deliberately
// benign with a comment on the flagged line or the line above it that
// states why:
//
//	//memdos:ignore <check>[,<check>...] <why this is safe>
//
// memdos-vet prints every suppressed finding, so the ledger stays
// auditable rather than silent. A suppression with no reason, or with
// no check, is itself reported (see StaleCheck).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file position so editors and
// CI annotations can link straight to the offending line.
type Diagnostic struct {
	Check   string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the conventional file:line:col: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Checker is one named analysis pass.
type Checker struct {
	// Name is the check ID used in ignore comments and diagnostics.
	Name string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass hands one package to one checker and collects its diagnostics.
type Pass struct {
	// Check is the running checker's name; Reportf stamps it on findings.
	Check string
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Check:   p.Check,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Checkers returns the full suite in canonical order.
func Checkers() []*Checker {
	return []*Checker{
		DeterminismChecker(),
		MapOrderChecker(),
		GuardedChecker(),
		GoLifeChecker(),
		BenchPinChecker(),
	}
}

// Result is the outcome of running a checker suite over packages.
type Result struct {
	// Findings are the active diagnostics, sorted by position.
	Findings []Diagnostic
	// Suppressed are diagnostics neutralized by //memdos:ignore comments,
	// kept for auditing.
	Suppressed []Diagnostic
	// Stale are //memdos:ignore comments that cannot stand: entries
	// naming a checker that ran yet matched no diagnostic, entries naming
	// no known checker, and comments that name no check or give no
	// reason. A suppression that outlives its finding, or never said why
	// it was safe, is a contract hole — memdos-vet reports it with exit
	// status 2.
	Stale []Diagnostic
}

// StaleCheck is the pseudo-check name stale-suppression diagnostics are
// reported under. It cannot itself be ignored.
const StaleCheck = "staleignore"

// Run applies every checker to every package, resolves suppressions and
// returns position-sorted results. The output is deterministic for a
// given input regardless of checker-internal iteration order.
//
// After the checkers finish, every //memdos:ignore entry is audited:
// an entry for a checker that ran but suppressed nothing is stale (the
// finding it once justified is gone — delete the comment), and an entry
// naming no known checker is stale outright (it can never suppress
// anything). Entries for known checkers that did not run are left alone,
// so a run of a single checker never misreports live suppressions. A
// comment that names no check or states no reason suppresses nothing
// and is reported whichever checkers ran.
func Run(pkgs []*Package, checks []*Checker) Result {
	known := make(map[string]bool)
	for _, c := range Checkers() {
		known[c.Name] = true
	}
	selected := make(map[string]bool, len(checks))
	for _, c := range checks {
		selected[c.Name] = true
	}
	var res Result
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		for _, c := range checks {
			pass := &Pass{Check: c.Name, Pkg: pkg}
			pass.report = func(d Diagnostic) {
				if ignores.covers(d) {
					res.Suppressed = append(res.Suppressed, d)
					return
				}
				res.Findings = append(res.Findings, d)
			}
			c.Run(pass)
		}
		res.Stale = append(res.Stale, ignores.stale(selected, known)...)
	}
	sortDiags(res.Findings)
	sortDiags(res.Suppressed)
	sortDiags(res.Stale)
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// IgnoreDirective is the comment prefix that suppresses findings.
const IgnoreDirective = "//memdos:ignore"

// ignoreEntry is one check name of one //memdos:ignore comment, with a
// usage bit so entries that suppress nothing can be reported stale.
type ignoreEntry struct {
	check string
	file  string
	line  int
	col   int
	used  bool
}

// ignoreIndex maps file -> line -> the ignore entries anchored there. A
// comment covers its own line and the line directly below it, so it can
// trail the flagged statement or sit on its own line above.
type ignoreIndex struct {
	byLine  map[string]map[int][]*ignoreEntry
	entries []*ignoreEntry // in source order, for the stale audit
	// malformed are comments that name no check or give no reason; they
	// index no entry and are reported as they are found.
	malformed []Diagnostic
}

func (ix *ignoreIndex) covers(d Diagnostic) bool {
	lines := ix.byLine[d.File]
	if lines == nil {
		return false
	}
	hit := false
	for _, ln := range [2]int{d.Line, d.Line - 1} {
		for _, e := range lines[ln] {
			if e.check == d.Check {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

// stale returns diagnostics for the malformed comments and for entries
// that suppressed nothing: entries whose check ran (selected) yet matched
// no diagnostic, and entries naming no known checker at all.
func (ix *ignoreIndex) stale(selected, known map[string]bool) []Diagnostic {
	out := ix.malformed
	for _, e := range ix.entries {
		if e.used {
			continue
		}
		var msg string
		switch {
		case !known[e.check]:
			msg = fmt.Sprintf("suppression names unknown check %q; it can never suppress anything — fix or delete it", e.check)
		case selected[e.check]:
			msg = fmt.Sprintf("suppression for %s matches no finding; the justified code is gone — delete the comment", e.check)
		default:
			continue // the named checker did not run; cannot judge
		}
		out = append(out, Diagnostic{
			Check:   StaleCheck,
			File:    e.file,
			Line:    e.line,
			Col:     e.col,
			Message: msg,
		})
	}
	return out
}

func collectIgnores(pkg *Package) *ignoreIndex {
	ix := &ignoreIndex{byLine: make(map[string]map[int][]*ignoreEntry)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					msg := "suppression names no check; write " + IgnoreDirective + " <check> <why this is safe>"
					if len(fields) == 1 {
						msg = fmt.Sprintf("suppression for %s states no reason; say why the finding is safe", fields[0])
					}
					ix.malformed = append(ix.malformed, Diagnostic{
						Check: StaleCheck, File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg,
					})
					continue
				}
				lines := ix.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*ignoreEntry)
					ix.byLine[pos.Filename] = lines
				}
				for _, check := range strings.Split(fields[0], ",") {
					e := &ignoreEntry{
						check: strings.TrimSpace(check),
						file:  pos.Filename,
						line:  pos.Line,
						col:   pos.Column,
					}
					lines[pos.Line] = append(lines[pos.Line], e)
					ix.entries = append(ix.entries, e)
				}
			}
		}
	}
	return ix
}
