package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"memdos/internal/analysis"
)

// goldenPackages pairs each testdata corpus with the checker its markers
// were written against ("" = the full suite). The staleignore corpus runs
// the full suite because the stale audit is not a checker — it rides
// along with every run.
var goldenPackages = []struct {
	dir   string
	check string
}{
	{"determinism", "determinism"},
	{"maporder", "maporder"},
	{"guarded", "guarded"},
	{"golife", "golife"},
	{"benchpin", "benchpin"},
	{"staleignore", ""},
}

// checkers returns the named checker alone, or the full suite for "".
func checkers(t *testing.T, name string) []*analysis.Checker {
	t.Helper()
	all := analysis.Checkers()
	if name == "" {
		return all
	}
	for _, c := range all {
		if c.Name == name {
			return []*analysis.Checker{c}
		}
	}
	t.Fatalf("no checker named %q", name)
	return nil
}

// TestGolden diffs each checker's output over its golden package in
// testdata/ against the // want (active finding), // wantsup
// (suppressed finding) and // wantstale (stale-suppression audit)
// markers in the sources. Every marker must be hit exactly once and
// every diagnostic must be expected, so both false negatives and false
// positives fail, and suppression behavior (same-line and line-above
// //memdos:ignore forms) is pinned. Corpora without wantstale markers
// implicitly assert a clean stale audit.
func TestGolden(t *testing.T) {
	for _, g := range goldenPackages {
		t.Run(g.dir, func(t *testing.T) {
			pkgs, err := analysis.Load("", "memdos/internal/analysis/testdata/"+g.dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("loaded %d packages, want 1", len(pkgs))
			}
			res := analysis.Run(pkgs, checkers(t, g.check))
			exps := parseExpectations(t, pkgs[0].Dir)

			if len(res.Findings) == 0 {
				t.Error("no active findings: memdos-vet would exit 0 on this golden package")
			}
			matchDiagnostics(t, "finding", res.Findings, exps["want"])
			matchDiagnostics(t, "suppressed finding", res.Suppressed, exps["wantsup"])
			matchDiagnostics(t, "stale suppression", res.Stale, exps["wantstale"])
		})
	}
}

// TestTestdataFailsFullSuite pins the CI contract from the other side:
// the full default suite (what `memdos-vet <pkg>` runs) must report at
// least one active finding — i.e. exit nonzero — on every golden
// package.
func TestTestdataFailsFullSuite(t *testing.T) {
	for _, g := range goldenPackages {
		pkgs, err := analysis.Load("", "memdos/internal/analysis/testdata/"+g.dir)
		if err != nil {
			t.Fatal(err)
		}
		res := analysis.Run(pkgs, analysis.Checkers())
		if len(res.Findings) == 0 {
			t.Errorf("testdata/%s: full suite reports no findings; memdos-vet would exit 0", g.dir)
		}
	}
}

// TestRepoClean is the self-application gate: the full suite over the
// whole module must be finding-free and its stale audit empty, which
// includes every suppression stating a reason beyond the bare check
// name.
func TestRepoClean(t *testing.T) {
	pkgs, err := analysis.Load("", "memdos/...")
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Run(pkgs, analysis.Checkers())
	for _, d := range res.Findings {
		t.Errorf("unexpected finding: %s", d)
	}
	for _, d := range res.Stale {
		t.Errorf("stale suppression: %s", d)
	}
	if len(res.Suppressed) == 0 {
		t.Error("expected justified suppressions in the repo, found none (did suppression matching break?)")
	}
}

// expectation is one parsed // want, // wantsup or // wantstale marker.
type expectation struct {
	file    string // base name
	line    int
	pattern *regexp.Regexp
	matched bool
}

var markerRE = regexp.MustCompile("// (want|wantsup|wantstale) `([^`]+)`")

// parseExpectations scans every .go file in dir for markers, keyed by
// marker kind.
func parseExpectations(t *testing.T, dir string) map[string][]*expectation {
	t.Helper()
	exps := map[string][]*expectation{"want": nil, "wantsup": nil, "wantstale": nil}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range markerRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s:%d: bad marker regexp %q: %v", e.Name(), i+1, m[2], err)
				}
				exps[m[1]] = append(exps[m[1]], &expectation{file: e.Name(), line: i + 1, pattern: re})
			}
		}
	}
	return exps
}

// matchDiagnostics pairs diagnostics with expectations one-to-one by
// (file, line, message-regexp) and reports both directions of mismatch.
func matchDiagnostics(t *testing.T, kind string, ds []analysis.Diagnostic, exps []*expectation) {
	t.Helper()
	for _, d := range ds {
		found := false
		for _, exp := range exps {
			if !exp.matched && exp.file == filepath.Base(d.File) && exp.line == d.Line && exp.pattern.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected %s: %s", kind, d)
		}
	}
	for _, exp := range exps {
		if !exp.matched {
			t.Errorf("missing %s at %s:%d matching %q", kind, exp.file, exp.line, exp.pattern)
		}
	}
}

// BenchmarkVetRepo times one full load-and-analyze pass over the whole
// module — the cost CI pays per memdos-vet run. It must stay in the
// single-digit seconds; the go list export-data path keeps it there.
func BenchmarkVetRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := analysis.Load("", "memdos/...")
		if err != nil {
			b.Fatal(err)
		}
		res := analysis.Run(pkgs, analysis.Checkers())
		if len(res.Findings) != 0 {
			b.Fatalf("repo not clean: %d findings (first: %s)", len(res.Findings), res.Findings[0])
		}
	}
}
