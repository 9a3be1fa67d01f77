package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoLifeChecker enforces the goroutine-lifecycle discipline of the
// serving layer (see DESIGN.md "Hot-path & lifecycle contracts"): every
// goroutine the code spawns must be stoppable, and the teardown paths
// that stop them must not deadlock. Four patterns are flagged:
//
//  1. no shutdown path — a go statement whose body (a function literal,
//     or a same-package function resolved statically) loops forever with
//     no select, channel receive, return or break inside the loop: such
//     a goroutine can never observe a close/done signal and leaks.
//
//  2. blocking send on a shutdown path — a bare channel send inside a
//     Close/Stop/Shutdown/Drain function blocks forever if the receiver
//     already exited; sends there must sit in a select (with a default
//     or a done case), or the path should close the channel instead.
//
//  3. WaitGroup.Add inside the spawned goroutine — Add racing Wait: by
//     the time the goroutine runs, Wait may already have returned. Add
//     belongs before the go statement.
//
//  4. shared loop-variable capture — a goroutine literal that captures a
//     range/for variable assigned (not declared) by the loop clause;
//     such variables are one shared cell across iterations in every Go
//     version (Go 1.22 per-iteration semantics only covers := forms).
//
// Like the lock discipline in guarded, the analysis is function-local
// and conservative: it proves participation in a shutdown protocol, not
// liveness. Goroutines whose lifetime is genuinely the process lifetime
// carry a //memdos:ignore golife justification.
func GoLifeChecker() *Checker {
	return &Checker{
		Name: "golife",
		Run:  runGoLife,
	}
}

func runGoLife(pass *Pass) {
	declOf := packageFuncDecls(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoStatements(pass, fd, declOf)
			if isShutdownFunc(fd.Name.Name) {
				checkShutdownSends(pass, fd)
			}
		}
	}
}

// packageFuncDecls maps function objects to declarations for resolving
// `go f()` spawns of named same-package functions.
func packageFuncDecls(pkg *Package) map[types.Object]*ast.FuncDecl {
	declOf := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					declOf[obj] = fd
				}
			}
		}
	}
	return declOf
}

// checkGoStatements inspects every go statement in fd's body.
func checkGoStatements(pass *Pass, fd *ast.FuncDecl, declOf map[types.Object]*ast.FuncDecl) {
	// Track the loop stack so goroutine literals can be checked for
	// shared loop-variable capture.
	var loops []ast.Stmt
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return true
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
			for _, child := range loopChildren(n.(ast.Stmt)) {
				ast.Inspect(child, visit)
			}
			loops = loops[:len(loops)-1]
			return false // children already walked
		case *ast.GoStmt:
			checkOneGo(pass, n, declOf, loops)
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// loopChildren returns the AST nodes under a for/range statement.
func loopChildren(s ast.Stmt) []ast.Node {
	var out []ast.Node
	switch s := s.(type) {
	case *ast.ForStmt:
		for _, n := range []ast.Node{s.Init, s.Cond, s.Post, s.Body} {
			if n != nil {
				out = append(out, n)
			}
		}
	case *ast.RangeStmt:
		// Key/Value idents need no lifecycle checks themselves.
		if s.X != nil {
			out = append(out, s.X)
		}
		out = append(out, s.Body)
	}
	return out
}

func checkOneGo(pass *Pass, g *ast.GoStmt, declOf map[types.Object]*ast.FuncDecl, loops []ast.Stmt) {
	info := pass.Pkg.Info

	// Resolve the spawned body: a literal, or a named same-package
	// function. Dynamic targets (interface methods, function values)
	// cannot be checked.
	var body *ast.BlockStmt
	var what string
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
		what = "goroutine"
		checkLoopVarCapture(pass, g, lit, loops)
		checkWaitGroupAdd(pass, lit)
	} else if obj := calleeObject(info, g.Call); obj != nil {
		if fd, ok := declOf[obj]; ok {
			body = fd.Body
			what = "goroutine " + funcDisplayName(fd)
		}
	}
	if body == nil {
		return
	}
	for _, loop := range endlessLoops(body) {
		if !loopHasShutdownPath(loop) {
			pass.Reportf(g.Pos(),
				"%s loops forever with no shutdown path (no select, channel receive, return, or break in the loop); give it a done channel or context",
				what)
			return // one finding per go statement is enough
		}
	}
}

// endlessLoops returns the for-loops in body with no condition (for {}).
// Nested function literals are someone else's goroutine problem and are
// not descended into.
func endlessLoops(body *ast.BlockStmt) []*ast.ForStmt {
	var out []*ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if f, ok := n.(*ast.ForStmt); ok && f.Cond == nil {
			out = append(out, f)
		}
		return true
	})
	return out
}

// loopHasShutdownPath reports whether the loop body contains a construct
// that can observe a stop signal or leave the loop: a select statement,
// a channel receive, a range over anything (channel ranges end on close;
// other ranges bound the pass), a return, or a break.
func loopHasShutdownPath(loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
			}
		}
		return !found
	})
	return found
}

// isShutdownFunc reports whether name is a teardown entry point.
func isShutdownFunc(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range []string{"close", "stop", "shutdown", "drain"} {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// checkShutdownSends flags bare channel sends in a shutdown function.
// Sends appearing as a select communication clause are fine: the select
// gives them an escape hatch (default or a competing done case).
func checkShutdownSends(pass *Pass, fd *ast.FuncDecl) {
	selectSends := make(map[*ast.SendStmt]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			if comm, ok := clause.(*ast.CommClause); ok {
				if send, ok := comm.Comm.(*ast.SendStmt); ok {
					selectSends[send] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		send, ok := n.(*ast.SendStmt)
		if !ok || selectSends[send] {
			return true
		}
		pass.Reportf(send.Arrow,
			"channel send in shutdown path %s blocks forever if the receiver already exited; use a select (or close the channel) — or justify the rendezvous with //memdos:ignore golife",
			fd.Name.Name)
		return true
	})
}

// checkWaitGroupAdd flags wg.Add calls lexically inside the spawned
// goroutine literal.
func checkWaitGroupAdd(pass *Pass, lit *ast.FuncLit) {
	info := pass.Pkg.Info
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if t := info.TypeOf(sel.X); t != nil && isWaitGroup(t) {
			pass.Reportf(call.Pos(),
				"WaitGroup.Add inside the spawned goroutine races Wait; Add before the go statement")
		}
		return true
	})
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// checkLoopVarCapture flags references inside the goroutine literal to
// variables that an enclosing loop clause assigns (rather than declares):
// those stay one shared cell across iterations in every Go version.
func checkLoopVarCapture(pass *Pass, g *ast.GoStmt, lit *ast.FuncLit, loops []ast.Stmt) {
	info := pass.Pkg.Info
	shared := make(map[types.Object]bool)
	for _, loop := range loops {
		switch loop := loop.(type) {
		case *ast.RangeStmt:
			if loop.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{loop.Key, loop.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.Uses[id]; obj != nil {
							shared[obj] = true
						}
					}
				}
			}
		case *ast.ForStmt:
			// A 3-clause loop shares its variable only when the variable
			// outlives the statement (declared before it, mutated by Post).
			if loop.Post == nil {
				continue
			}
			ast.Inspect(loop.Post, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				case *ast.AssignStmt:
					targets = n.Lhs
				default:
					return true
				}
				for _, t := range targets {
					id, ok := t.(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Uses[id]
					if obj == nil {
						continue
					}
					// Declared by the loop's own Init => per-iteration
					// since Go 1.22; declared outside => shared.
					if obj.Pos() < loop.Pos() || obj.Pos() > loop.End() {
						shared[obj] = true
					}
				}
				return true
			})
		}
	}
	if len(shared) == 0 {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && shared[obj] {
			pass.Reportf(id.Pos(),
				"goroutine captures loop variable %s, one shared cell across iterations (assigned, not declared, by the loop clause); pass it as an argument",
				id.Name)
			shared[obj] = false // one finding per variable per goroutine
		}
		return true
	})
}
