// Command memdos-vet runs the project's custom static-analysis suite
// (internal/analysis) over Go packages and fails the build on findings.
//
// Usage:
//
//	memdos-vet [-checks list] [-format text|sarif] [-v] [packages...]
//
// With no package arguments it analyzes ./.... Exit status is 0 when no
// active findings remain, 1 on findings, 2 on usage or load errors — and
// on stale suppressions: a //memdos:ignore comment that no longer
// suppresses any finding is a contract hole, reported under the
// staleignore pseudo-check. Findings are suppressed, with a
// justification, by a comment on the flagged line or the line above it:
//
//	//memdos:ignore <check>[,<check>...] <why this is safe>
//
// -format sarif emits SARIF 2.1.0 for GitHub code-scanning annotations.
package main

import (
	"encoding/json"
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
	format := fs.String("format", "text", "output format: text or sarif")
	checksFlag := fs.String("checks", "", "comma-separated check names to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	verbose := fs.Bool("v", false, "also print suppressed findings")
	fs.Parse(os.Args[1:])
	switch *format {
	case "text", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "memdos-vet: unknown -format %q (valid: text, sarif)\n", *format)
		return 2
	}

	if *list {
		// Listing ignores -checks so a typo there cannot hide the very
		// names the user is trying to discover.
		for _, c := range analysis.Checkers() {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	checks, err := analysis.Select(*checksFlag)
	if err != nil {
		// The error names the valid checkers; never fall through to an
		// empty run that would report a meaningless success.
		fmt.Fprintln(os.Stderr, "memdos-vet:", err)
		fmt.Fprintln(os.Stderr, "memdos-vet: run with -list to see every check and its description")
		return 2
	}

	pkgs, err := analysis.Load("", fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res := analysis.Run(pkgs, checks)
	relativize(res.Findings)
	relativize(res.Suppressed)
	relativize(res.Stale)

	switch *format {
	case "sarif":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(analysis.NewSARIF(checks, res)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	default:
		for _, d := range res.Findings {
			fmt.Println(d)
		}
		for _, d := range res.Stale {
			fmt.Println(d)
		}
		if *verbose {
			for _, d := range res.Suppressed {
				fmt.Printf("%s (suppressed)\n", d)
			}
		}
		if len(res.Findings) == 0 && len(res.Stale) == 0 {
			fmt.Printf("memdos-vet: %d packages clean (%d findings suppressed with justification)\n",
				len(pkgs), len(res.Suppressed))
		}
	}
	switch {
	case len(res.Stale) > 0:
		// Stale suppressions outrank findings: they mean the suppression
		// ledger itself is wrong, which is a configuration-class error.
		return 2
	case len(res.Findings) > 0:
		return 1
	}
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
