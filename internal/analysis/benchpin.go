package analysis

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
)

// BenchPinChecker keeps the //memdos:hotpath annotation and its
// enforcement from drifting apart: every *annotated* function must be
// pinned by a zero-alloc test — a _test.go function in the same package
// that calls testing.AllocsPerRun and references the hot function (by
// name for functions, by selector for methods). An allocation count is
// deterministic, so the pin cannot flake; a timing benchmark cannot see
// an allocation, so none is accepted in its place.
//
// Functions merely *called* from an annotated root are measured by its
// pin and need none of their own. Test files are parsed syntactically on
// demand (the loader only type-checks non-test sources); the reference
// match is by name, which is the documented, deliberately loose limit of
// the analysis.
func BenchPinChecker() *Checker {
	return &Checker{
		Name: "benchpin",
		Run:  runBenchPin,
	}
}

func runBenchPin(pass *Pass) {
	var allocTested map[string]bool
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotPathAnnotated(fd) {
				continue
			}
			if allocTested == nil {
				allocTested = allocTestedNames(pass.Pkg)
			}
			if !allocTested[fd.Name.Name] {
				pass.Reportf(fd.Pos(),
					"hotpath %s has no zero-alloc pin: no testing.AllocsPerRun test in the package references it",
					funcDisplayName(fd))
			}
		}
	}
}

// allocTestedNames parses the package's _test.go files and returns the
// set of function/method names referenced inside test functions that
// call testing.AllocsPerRun (the reference may sit in a closure passed
// to AllocsPerRun or anywhere else in the same test).
func allocTestedNames(pkg *Package) map[string]bool {
	names := make(map[string]bool)
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		return names
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(pkg.Fset, filepath.Join(pkg.Dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			usesAllocsPerRun := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "AllocsPerRun" {
					usesAllocsPerRun = true
					return false
				}
				return true
			})
			if !usesAllocsPerRun {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					names[n.Name] = true
				case *ast.SelectorExpr:
					names[n.Sel.Name] = true
				}
				return true
			})
		}
	}
	return names
}
