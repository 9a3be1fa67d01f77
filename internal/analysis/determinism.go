package analysis

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time-package functions that read or depend on
// the wall clock / OS timers. Types like time.Duration remain usable —
// only these calls make a deterministic package's output run-dependent.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

// globalRandExempt are math/rand functions that do NOT touch the
// process-global source: constructors for explicitly seeded generators.
var globalRandExempt = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// DeterminismChecker forbids wall-clock reads (time.Now, time.Since, …)
// and the global math/rand source inside the deterministic core
// packages. Simulated time must come from internal/sim.Clock and
// randomness from a seeded internal/sim.RNG, so that every figure is
// reproducible bit-for-bit from its seed.
func DeterminismChecker() *Checker {
	return &Checker{
		Name: "determinism",
		Run:  runDeterminism,
	}
}

func runDeterminism(pass *Pass) {
	if !pass.Pkg.Deterministic {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Pkg.Info.Uses[id]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(id.Pos(),
						"time.%s reads the wall clock in deterministic package %s; use the sim.Clock (or take the value as a parameter)",
						fn.Name(), pass.Pkg.Types.Name())
				}
			case "math/rand", "math/rand/v2":
				// Package-level functions draw from the shared global
				// source; methods on an explicitly constructed *rand.Rand
				// have a non-nil receiver and are not package-level.
				if fn.Type().(*types.Signature).Recv() == nil && !globalRandExempt[fn.Name()] {
					pass.Reportf(id.Pos(),
						"%s.%s uses the global math/rand source in deterministic package %s; use a seeded sim.RNG",
						fn.Pkg().Path(), fn.Name(), pass.Pkg.Types.Name())
				}
			}
			return true
		})
	}
}
