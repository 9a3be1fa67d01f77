package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrderChecker flags `for … range` over a map in deterministic
// packages, where Go's randomized iteration order can leak into
// results. A loop is exempt when its body provably cannot observe
// order: every statement writes through a map index, deletes a key, or
// accumulates into an integer (integer + and friends are commutative
// and associative even under wrap-around — float accumulation is NOT,
// which is exactly the bug class this check exists for).
//
// Loops whose order-insensitivity the analysis cannot see (e.g. keys
// collected into a slice that is sorted afterwards) carry a justified
// //memdos:ignore maporder comment.
func MapOrderChecker() *Checker {
	return &Checker{
		Name: "maporder",
		Run:  runMapOrder,
	}
}

func runMapOrder(pass *Pass) {
	if !pass.Pkg.Deterministic {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitiveBody(rs.Body, info) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"iteration over map %s has randomized order that may leak into results; iterate sorted keys, or annotate //memdos:ignore maporder with why order cannot matter",
				typeString(tv.Type))
			return true
		})
	}
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// orderInsensitiveBody reports whether every statement in the loop body
// belongs to the conservative order-insensitive whitelist.
func orderInsensitiveBody(body *ast.BlockStmt, info *types.Info) bool {
	for _, stmt := range body.List {
		if !orderInsensitiveStmt(stmt, info) {
			return false
		}
	}
	return len(body.List) > 0
}

func orderInsensitiveStmt(stmt ast.Stmt, info *types.Info) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ASSIGN:
			// Plain assignment: order-blind only if every target is a
			// map entry (keyed writes commute across distinct keys; for
			// duplicate keys the last write wins identically).
			for _, lhs := range s.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					return false
				}
				tv, ok := info.Types[ix.X]
				if !ok {
					return false
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return false
				}
			}
			return true
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
			// Commutative-and-associative accumulation, integers only.
			return len(s.Lhs) == 1 && isIntegerExpr(s.Lhs[0], info)
		default:
			return false
		}
	case *ast.IncDecStmt:
		return isIntegerExpr(s.X, info)
	case *ast.ExprStmt:
		// delete(m, k) commutes across iterations.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "delete"
	default:
		return false
	}
}

func isIntegerExpr(e ast.Expr, info *types.Info) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}
