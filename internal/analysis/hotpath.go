package analysis

// This file parses the //memdos:hotpath function annotation (see
// DESIGN.md "Hot-path & lifecycle contracts") and holds the AST helpers
// benchpin and golife share.

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathDirective marks a function as allocation-free steady state:
//
//	//memdos:hotpath [free-text rationale]
//
// The directive goes in the function's doc comment. benchpin requires a
// testing.AllocsPerRun test in the package that references the function
// (see benchpin.go); that measured pin is the contract's one enforcer,
// and it covers whatever the function calls, in any package.
const HotPathDirective = "//memdos:hotpath"

// funcDisplayName renders "Type.Method" for methods and "Func" otherwise.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver Type[T]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// hotPathAnnotated reports whether fd's doc comment carries the
// directive.
func hotPathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, HotPathDirective)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// calleeObject resolves the function or method object a call statically
// targets, or nil when the target is dynamic (function value, interface
// method) or a builtin/conversion.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[fun]
		if ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			// Interface dispatch has no body to follow.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			return sel.Obj()
		}
		// Package-qualified call (pkg.Func).
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}
