package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The analysis core: one index of the module's functions, built once by
// LoadModule, that the analyzers query instead of re-walking bodies.
// Each function carries the module functions it references (the call
// graph), the resolution scope of its body, and every store destination
// resolved by one chain resolver; cone walks the call graph.

// maxDepth bounds every recursive expression walk.
const maxDepth = 8

// funcNode is one module function declaration with a body.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	hot  bool
	// phases marks a //foam:hotphases binder, cold a //foam:coldpath one.
	phases bool
	cold   bool

	// callees are the module functions the body references, by call or
	// by value, in source order, each once. A hotphases binder's phase
	// closures run at step time, as hot roots of their own, so what they
	// reference is not the binder's.
	callees []*funcNode
	// scope resolves the body's identifiers and single-assignment locals.
	scope *fnScope
	// writes are the body's store destinations in source order.
	writes []write
	// sliceParam is the index of the parameter every return statement
	// reslices (rowOf(f, j) returns f[a:b]), or -1: a store through the
	// result is a store to that argument.
	sliceParam int
}

// write is one store destination of a function body: an assignment or
// IncDec target (a bare identifier only rebinds and is left out), the
// destination of copy or clear, or a reference-typed argument bound to a
// parameter of a module function, which stores if the callee writes that
// parameter.
type write struct {
	pos     token.Pos  // the statement or call
	dst     ast.Expr   // as written
	builtin string     // "copy" or "clear" for their destinations
	param   *types.Var // the parameter an argument binds
	dest
}

// dest is a resolved destination chain.
type dest struct {
	// links are the selected fields, outermost first.
	links []link
	// rootTN is the named type the chain bottoms out in, root the
	// variable or object when it ends in one.
	rootTN *types.TypeName
	root   types.Object
	// stepped is set when the chain passes through storage (a field,
	// element or dereference) rather than naming a binding.
	stepped bool
}

// link is one selected field of a chain.
type link struct {
	field types.Object
	// base is the type of the operand the field is selected from.
	base types.Type
	// elem is set when an element access (index, slice, dereference)
	// lies between this selector and the store, or the store itself
	// writes elements (copy, clear).
	elem bool
}

// fnScope resolves identifiers inside one function body and follows
// locals that are assigned exactly once.
type fnScope struct {
	pkg    *Package
	funcs  map[*types.Func]*funcNode
	single map[types.Object]ast.Expr // single-assignment RHS; nil = reassigned
}

func newFnScope(pkg *Package, funcs map[*types.Func]*funcNode, body ast.Node) *fnScope {
	s := &fnScope{pkg: pkg, funcs: funcs, single: make(map[types.Object]ast.Expr)}
	record := func(id *ast.Ident, rhs ast.Expr) {
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil || id.Name == "_" {
			return
		}
		if _, seen := s.single[obj]; seen {
			s.single[obj] = nil
			return
		}
		s.single[obj] = rhs
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			oneToOne := len(st.Lhs) == len(st.Rhs)
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if oneToOne {
					record(id, st.Rhs[i])
				} else {
					record(id, nil)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
				record(id, nil)
				record(id, nil) // force reassigned
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					record(id, nil)
				}
			}
		case *ast.ValueSpec:
			for i, id := range st.Names {
				if i < len(st.Values) {
					record(id, st.Values[i])
				} else {
					record(id, nil)
				}
			}
		}
		return true
	})
	return s
}

func (s *fnScope) obj(id *ast.Ident) types.Object {
	if o := s.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return s.pkg.Info.Defs[id]
}

// resolve unwraps a store destination, or an argument, into its chain.
// elem is true when the store writes elements of e rather than e itself.
// An alias does not launder a store: reference-typed single-assignment
// locals are followed to their initializer, while value copies end the
// chain (a write to a struct copy stays local).
func (s *fnScope) resolve(e ast.Expr, elem bool, depth int) dest {
	if depth > 2*maxDepth {
		return dest{}
	}
	info := s.pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		d := s.resolve(x.X, true, depth+1)
		d.stepped = true
		return d
	case *ast.SliceExpr:
		d := s.resolve(x.X, true, depth+1)
		d.stepped = true
		return d
	case *ast.StarExpr:
		d := s.resolve(x.X, true, depth+1)
		d.stepped = true
		return d
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return s.resolve(x.X, elem, depth+1)
		}
	case *ast.SelectorExpr:
		if f := fieldObjOf(s.pkg, x); f != nil {
			d := s.resolve(x.X, elem, depth+1)
			d.links = append([]link{{field: f, base: info.TypeOf(x.X), elem: elem}}, d.links...)
			d.stepped = true
			return d
		}
		// Package-qualified var or method value: the chain ends here.
		if obj := info.Uses[x.Sel]; obj != nil {
			return dest{rootTN: namedOf(obj.Type()), root: obj}
		}
	case *ast.CallExpr, *ast.CompositeLit:
		if call, ok := x.(*ast.CallExpr); ok {
			if fn := staticCallee(info, call); fn != nil {
				if n := s.funcs[fn]; n != nil && n.sliceParam >= 0 && n.sliceParam < len(call.Args) {
					d := s.resolve(call.Args[n.sliceParam], true, depth+1)
					d.stepped = true
					return d
				}
			}
		}
		// A composite literal is reached by following a local back to
		// &T{...}: the root type must survive, or every constructor that
		// fills fields after the literal looks like a dirty write.
		if t := info.TypeOf(x); t != nil {
			return dest{rootTN: namedOf(t), stepped: true}
		}
	case *ast.Ident:
		obj := s.obj(x)
		v, ok := obj.(*types.Var)
		if !ok {
			return dest{root: obj}
		}
		if referenceLike(v.Type()) {
			if rhs, rec := s.single[v]; rec && rhs != nil && ast.Unparen(rhs) != ast.Unparen(e) {
				return s.resolve(rhs, elem, depth+1)
			}
		}
		return dest{rootTN: namedOf(v.Type()), root: v}
	}
	return dest{}
}

// buildFuncIndex indexes every module function with a body, in source
// position order, and computes its facts.
func (prog *Program) buildFuncIndex() {
	prog.funcs = make(map[*types.Func]*funcNode)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{
					fn:     obj,
					decl:   fd,
					pkg:    pkg,
					hot:    prog.pragmas.hot[obj],
					phases: prog.pragmas.phases[obj],
					cold:   prog.pragmas.cold[obj],
					scope:  newFnScope(pkg, prog.funcs, fd.Body),
				}
				n.sliceParam = slicedParam(pkg.Info, obj, fd.Body)
				prog.funcs[obj] = n
				prog.funcList = append(prog.funcList, n)
			}
		}
	}
	sort.Slice(prog.funcList, func(i, j int) bool {
		a, b := prog.position(prog.funcList[i].decl.Pos()), prog.position(prog.funcList[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, n := range prog.funcList {
		n.callees = prog.calleesIn(n.pkg, n.decl.Body, n.phases)
		n.writes = prog.writesIn(n)
	}
}

// slicedParam returns the index of the parameter that every return
// statement of fn's body reslices, or -1.
func slicedParam(info *types.Info, fn *types.Func, body *ast.BlockStmt) int {
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return -1
	}
	idx, ok := -1, true
	ast.Inspect(body, func(node ast.Node) bool {
		switch st := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			i := -1
			if len(st.Results) == 1 {
				if se, isSlice := ast.Unparen(st.Results[0]).(*ast.SliceExpr); isSlice {
					if id, isIdent := ast.Unparen(se.X).(*ast.Ident); isIdent {
						for p := 0; p < sig.Params().Len(); p++ {
							if info.Uses[id] == sig.Params().At(p) {
								i = p
							}
						}
					}
				}
			}
			ok = ok && i >= 0 && (idx < 0 || idx == i)
			idx = i
		}
		return true
	})
	if !ok {
		return -1
	}
	return idx
}

// calleesIn returns the module functions body references — by call or by
// value — in source order, leaving out function literals if skipLits.
func (prog *Program) calleesIn(pkg *Package, body ast.Node, skipLits bool) []*funcNode {
	var out []*funcNode
	seen := make(map[*funcNode]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		if _, lit := node.(*ast.FuncLit); lit && skipLits {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if callee := prog.funcs[fn]; callee != nil && !seen[callee] {
			seen[callee] = true
			out = append(out, callee)
		}
		return true
	})
	return out
}

// writesIn resolves every store destination of n's body.
func (prog *Program) writesIn(n *funcNode) []write {
	var out []write
	sc := n.scope
	add := func(pos token.Pos, dst ast.Expr, builtin string, param *types.Var) {
		d := sc.resolve(dst, builtin != "", 0)
		if builtin != "" {
			d.stepped = true
		}
		out = append(out, write{pos: pos, dst: dst, builtin: builtin, param: param, dest: d})
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch st := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent {
					add(st.Pos(), lhs, "", nil)
				}
			}
		case *ast.IncDecStmt:
			if _, isIdent := ast.Unparen(st.X).(*ast.Ident); !isIdent {
				add(st.Pos(), st.X, "", nil)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok {
				if b, ok := n.pkg.Info.Uses[id].(*types.Builtin); ok {
					if (b.Name() == "copy" || b.Name() == "clear") && len(st.Args) >= 1 {
						add(st.Pos(), st.Args[0], b.Name(), nil)
					}
					return true
				}
			}
			fn := staticCallee(n.pkg.Info, st)
			if fn == nil || prog.funcs[fn] == nil {
				return true
			}
			sig := fn.Type().(*types.Signature)
			bind := func(arg ast.Expr, p *types.Var) {
				if referenceLike(p.Type()) {
					add(st.Pos(), arg, "", p)
				}
			}
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok && sig.Recv() != nil {
				bind(sel.X, sig.Recv())
			}
			np := sig.Params().Len()
			if sig.Variadic() {
				np--
			}
			for i := 0; i < np && i < len(st.Args); i++ {
				bind(st.Args[i], sig.Params().At(i))
			}
		}
		return true
	})
	return out
}

// cone walks the call graph breadth-first from roots and returns every
// function reached, mapped to the index of the root that reached it
// first. Functions for which stop (if non-nil) reports true are neither
// returned nor entered.
func cone(roots []*funcNode, stop func(*funcNode) bool) map[*funcNode]int {
	type item struct {
		n    *funcNode
		root int
	}
	via := make(map[*funcNode]int)
	queue := make([]item, len(roots))
	for i, r := range roots {
		queue[i] = item{r, i}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if _, seen := via[it.n]; seen || (stop != nil && stop(it.n)) {
			continue
		}
		via[it.n] = it.root
		for _, c := range it.n.callees {
			if _, seen := via[c]; !seen {
				queue = append(queue, item{c, it.root})
			}
		}
	}
	return via
}

// constructionCones returns, per type, the module functions allowed to
// mutate it: every function whose results include T or *T — the
// builders — and everything they reach.
func constructionCones(prog *Program, tns map[*types.TypeName]bool) map[*types.TypeName]map[*funcNode]int {
	cones := make(map[*types.TypeName]map[*funcNode]int)
	for tn := range tns {
		var builders []*funcNode
		for _, n := range prog.funcList {
			results := n.fn.Type().(*types.Signature).Results()
			for i := 0; i < results.Len(); i++ {
				if namedOf(results.At(i).Type()) == tn {
					builders = append(builders, n)
					break
				}
			}
		}
		cones[tn] = cone(builders, nil)
	}
	return cones
}

// funcDisplayName renders "pkg.Func" or "pkg.(*T).Method" for messages.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return pkg + "(" + types.TypeString(recv.Type(), func(*types.Package) string { return "" }) + ")." + fn.Name()
	}
	return pkg + fn.Name()
}
