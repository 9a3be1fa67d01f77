// Command memdos-vet runs the project's custom static-analysis suite
// (internal/analysis) over Go packages and fails the build on findings.
//
// Usage:
//
//	memdos-vet [packages...]
//
// It takes no flags. With no package arguments it analyzes ./.... It
// prints every active finding, every stale suppression and every
// suppressed finding (marked "(suppressed)"). Exit status is 0 when no
// active findings remain, 1 on findings, 2 on usage or load errors — and
// on stale suppressions: a //memdos:ignore comment that no longer
// suppresses any finding, or that states no reason, is a contract hole,
// reported under the staleignore pseudo-check. Findings are suppressed,
// with the reason, by a comment on the flagged line or the line above it:
//
//	//memdos:ignore <check>[,<check>...] <why this is safe>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"memdos/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("memdos-vet", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: memdos-vet [packages...]")
	}
	fs.Parse(os.Args[1:])

	pkgs, err := analysis.Load("", fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res := analysis.Run(pkgs, analysis.Checkers())
	relativize(res.Findings)
	relativize(res.Suppressed)
	relativize(res.Stale)

	for _, d := range res.Findings {
		fmt.Println(d)
	}
	for _, d := range res.Stale {
		fmt.Println(d)
	}
	for _, d := range res.Suppressed {
		fmt.Printf("%s (suppressed)\n", d)
	}
	switch {
	case len(res.Stale) > 0:
		// Stale suppressions outrank findings: they mean the suppression
		// ledger itself is wrong, which is a configuration-class error.
		return 2
	case len(res.Findings) > 0:
		return 1
	}
	fmt.Printf("memdos-vet: %d packages clean (%d findings suppressed with justification)\n",
		len(pkgs), len(res.Suppressed))
	return 0
}

// relativize rewrites absolute file paths relative to the working
// directory so output is stable across machines and clickable locally.
func relativize(ds []analysis.Diagnostic) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i, d := range ds {
		if rel, err := filepath.Rel(wd, d.File); err == nil && !filepath.IsAbs(rel) {
			ds[i].File = rel
		}
	}
}
