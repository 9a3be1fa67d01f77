package analysis

// This file is the shared infrastructure of the hot-path contract (see
// DESIGN.md "Hot-path & lifecycle contracts"): parsing the
// //memdos:hotpath function annotation and computing, per package, the
// set of functions bound by it — the annotated functions plus every
// same-package function they can reach through static calls, since an
// allocation in a callee is an allocation in the hot path.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotPathDirective marks a function as allocation-free steady state:
//
//	//memdos:hotpath [free-text rationale]
//
// The directive goes in the function's doc comment. benchpin requires a
// testing.AllocsPerRun test in the package that references the function
// (see benchpin.go).
const HotPathDirective = "//memdos:hotpath"

// HotFunc is one function bound by the hot-path contract.
type HotFunc struct {
	// Decl is the function's declaration.
	Decl *ast.FuncDecl
	// Name is the display name ("Type.Method" or "Func").
	Name string
	// Annotated is true for functions carrying the directive themselves;
	// false for functions reached from one through intra-package calls.
	Annotated bool
	// Root is the display name of the annotated function this one was
	// reached from (== Name when Annotated).
	Root string
	// Pos is where the directive (or for callees, the declaration) sits.
	Pos token.Pos
}

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

// hotFuncs computes the package's hot set: annotated functions plus the
// same-package functions they reach through static calls (direct calls
// and method calls with a concrete receiver; calls through interfaces or
// function values are invisible to the propagation — the conservative,
// documented limit of the analysis). The result is sorted by position so
// downstream diagnostics are deterministic.
func hotFuncs(pkg *Package) []*HotFunc {
	// Map every function/method object to its declaration so calls
	// resolve to bodies.
	declOf := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pkg.Files {
		if isTestFile(pkg, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				declOf[obj] = fd
			}
		}
	}

	byDecl := make(map[*ast.FuncDecl]*HotFunc)
	var queue []*HotFunc
	for _, f := range pkg.Files {
		if isTestFile(pkg, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hotPathAnnotated(fd) {
				name := funcDisplayName(fd)
				hf := &HotFunc{Decl: fd, Name: name, Annotated: true, Root: name, Pos: fd.Pos()}
				byDecl[fd] = hf
				queue = append(queue, hf)
			}
		}
	}

	// BFS over intra-package static calls. An already-hot callee keeps
	// its first root (annotated status wins over reached status).
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		ast.Inspect(cur.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pkg.Info, call)
			if obj == nil {
				return true
			}
			fd, ok := declOf[obj]
			if !ok || byDecl[fd] != nil {
				return true
			}
			hf := &HotFunc{Decl: fd, Name: funcDisplayName(fd), Root: cur.Root, Pos: fd.Pos()}
			byDecl[fd] = hf
			queue = append(queue, hf)
			return true
		})
	}

	out := make([]*HotFunc, 0, len(byDecl))
	for _, hf := range byDecl {
		out = append(out, hf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
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
		// Package-qualified call (pkg.Func): only same-package decls are
		// in declOf, so resolving cross-package objects is harmless.
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}
