package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// GuardedChecker enforces the guarded-field discipline: a struct field
// annotated `// guarded by <mu>` may only be touched inside a function
// that visibly locks <mu> (calls <mu>.Lock or <mu>.RLock somewhere in
// its body, including deferred pairs) or whose name ends in "Locked"
// (the convention for helpers whose callers hold the lock). The analysis
// is function-local and conservative by design: it cannot prove the lock
// is held at the access, only that the function participates in the
// locking discipline at all.
//
// By-value copies of lock-bearing values are go vet's copylocks, which
// CI runs ahead of memdos-vet.
func GuardedChecker() *Checker {
	return &Checker{
		Name: "guarded",
		Run:  checkGuardedFields,
	}
}

var guardedByRE = regexp.MustCompile(`(?i)guarded by (\w+)`)

// checkGuardedFields collects `// guarded by <mu>` field annotations
// and verifies every access goes through a function that locks <mu>.
func checkGuardedFields(pass *Pass) {
	info := pass.Pkg.Info
	guarded := make(map[types.Object]string) // field object -> mutex name
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // callers hold the lock by convention
			}
			locked := lockedMutexNames(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selection, ok := info.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return true
				}
				mu, isGuarded := guarded[selection.Obj()]
				if !isGuarded || locked[mu] {
					return true
				}
				pass.Reportf(sel.Sel.Pos(),
					"%s accesses %s (guarded by %s) but never locks %s; lock it, rename the function *Locked, or justify with //memdos:ignore guarded",
					fd.Name.Name, selection.Obj().Name(), mu, mu)
				return true
			})
		}
	}
}

func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockedMutexNames returns the set of mutex field names on which the
// body calls Lock or RLock (directly or deferred).
func lockedMutexNames(body *ast.BlockStmt) map[string]bool {
	locked := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return true
		}
		switch x := sel.X.(type) {
		case *ast.Ident:
			locked[x.Name] = true
		case *ast.SelectorExpr:
			locked[x.Sel.Name] = true
		}
		return true
	})
	return locked
}
