package analysis

import (
	"go/ast"
	"go/types"
)

// staticCallee resolves a call to the *types.Func it statically invokes:
// a plain function, a package-qualified function, or a concrete method.
// Calls through function values and interface methods return nil — they
// are not statically resolvable, which is exactly why the hot-path
// analyzer also follows method-value references (see hotpathalloc.go).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isString reports whether t's underlying type is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
