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

// isFloat reports whether t's underlying type is a floating-point or
// complex basic type (including untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isString reports whether t's underlying type is a string type.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// namedOf unwraps pointers and returns the TypeName of a named type.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// fieldObjOf resolves a selector expression to the struct field it
// selects, or nil for method selections and package qualifiers.
func fieldObjOf(pkg *Package, sel *ast.SelectorExpr) types.Object {
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	return nil
}
