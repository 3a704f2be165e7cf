package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerHotPathAlloc enforces the zero-allocation contract of PR 2:
// a function annotated //foam:hotpath, and every function it statically
// reaches within this module, must not contain allocating constructs.
//
// Reachability follows direct calls, package-qualified calls, concrete
// method calls, and method-value/function references (so a kernel passed
// to pool.Run by reference is still covered). It stops at functions
// annotated //foam:coldpath — the audited escape hatch for construction,
// lazy one-time initialization, and failure paths — and cannot follow
// calls through interfaces or stored function values; annotate the
// concrete implementations of those instead. A //foam:hotphases binder is
// the third root form: the binder itself runs once at construction and
// may allocate, but each outermost function literal it binds is a pool
// phase that runs every step, so those literal bodies are hot roots.
//
// Flagged constructs: make, new, append, function literals, map and
// slice composite literals, address-taken composite literals, map
// writes, string concatenation, string<->[]byte/[]rune conversions,
// boxing a concrete value into an interface, variadic calls that build
// an argument slice, go statements, and defer inside a loop. Plain
// value composite literals (T{...} without &) are allowed: they live in
// registers or on the stack. Allocation inside the arguments of a panic
// call is also allowed — the failure path runs once, right before the
// program dies, so building the message there costs nothing in steady
// state. A function literal that cannot escape — immediately invoked, or
// bound with := to a local whose every use is a direct call — is also
// allowed: the compiler keeps it and its captures on the stack.
var AnalyzerHotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "reports allocating constructs reachable from //foam:hotpath functions",
	Run:  runHotPathAlloc,
}

// hotItem is one unit of hot code to verify: a declared function's body,
// or the body of a phase closure inside a //foam:hotphases binder.
type hotItem struct {
	pkg  *Package
	body *ast.BlockStmt
	sig  *types.Signature
	root string // display name of the hot root that reached it
}

func runHotPathAlloc(prog *Program, report func(Diagnostic)) {
	// Roots in source order: //foam:hotpath functions, and the phases of
	// //foam:hotphases binders — the binder runs once at construction and
	// may allocate freely, but every outermost function literal it binds
	// runs on the hot path. A phase is a root of its own, so findings name
	// the phase that reaches them.
	var roots []*funcNode
	var names []string
	lits := make(map[*funcNode]*ast.FuncLit)
	for _, n := range prog.funcList {
		if n.hot {
			roots, names = append(roots, n), append(names, funcDisplayName(n.fn))
			continue
		}
		if !n.phases {
			continue
		}
		for i, lit := range outermostFuncLits(n.decl.Body) {
			if _, ok := n.pkg.Info.TypeOf(lit).(*types.Signature); !ok {
				continue
			}
			phase := &funcNode{pkg: n.pkg, callees: prog.calleesIn(n.pkg, lit.Body, false)}
			lits[phase] = lit
			roots = append(roots, phase)
			names = append(names, fmt.Sprintf("%s$%d", funcDisplayName(n.fn), i+1))
		}
	}
	// Cold functions are the audited exemption; a hotphases binder reached
	// as a callee is skipped too — its bound literals are roots already.
	for n, root := range cone(roots, func(n *funcNode) bool { return n.cold || n.phases }) {
		it := hotItem{pkg: n.pkg, root: names[root]}
		if lit := lits[n]; lit != nil {
			it.body, it.sig = lit.Body, n.pkg.Info.TypeOf(lit).(*types.Signature)
		} else {
			it.body, it.sig = n.decl.Body, n.fn.Type().(*types.Signature)
		}
		checkHotBody(prog, it, report)
	}
}

// outermostFuncLits returns the function literals of body that are not
// nested inside another literal, in source order.
func outermostFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	if body == nil {
		return nil
	}
	var lits []*ast.FuncLit
	var end token.Pos
	ast.Inspect(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		if len(lits) == 0 || lit.Pos() >= end {
			lits = append(lits, lit)
			end = lit.End()
		}
		return true
	})
	return lits
}

// checkHotBody reports every allocating construct in one hot body.
func checkHotBody(prog *Program, it hotItem, report func(Diagnostic)) {
	body := it.body
	info := it.pkg.Info
	var inPanicArg func(pos token.Pos) bool
	emit := func(pos token.Pos, format string, args ...any) {
		if inPanicArg(pos) {
			return
		}
		report(Diagnostic{
			Pos:     prog.position(pos),
			Message: fmt.Sprintf("hot path (root %s): %s", it.root, fmt.Sprintf(format, args...)),
		})
	}

	// Selectors that are the function position of a call: a method *call*
	// does not allocate, a method *value* does.
	calledFuns := make(map[ast.Expr]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			calledFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	// Loop bodies and function-literal bodies, for the defer-in-loop rule
	// and for attributing return statements to the right signature.
	type interval struct{ lo, hi token.Pos }
	var loops []interval
	// Argument ranges of panic calls: allocation there only happens on the
	// failure path, moments before the program dies, so building the panic
	// message (fmt.Sprintf, string concatenation) is exempt.
	var panicArgs []interval
	// Function literals bound with := to a local that is only ever called
	// directly never escape, so the compiler keeps them (and their
	// captures) on the stack. Track candidates per variable here and
	// demote them if any use is not a call.
	localLits := make(map[types.Object][]*ast.FuncLit)
	type litScope struct {
		interval
		sig *types.Signature
	}
	var lits []litScope
	ast.Inspect(body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.ForStmt:
			loops = append(loops, interval{s.Body.Pos(), s.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, interval{s.Body.Pos(), s.Body.End()})
		case *ast.FuncLit:
			if sig, ok := info.TypeOf(s).(*types.Signature); ok {
				lits = append(lits, litScope{interval{s.Body.Pos(), s.Body.End()}, sig})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && len(s.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					panicArgs = append(panicArgs, interval{s.Lparen, s.Rparen})
				}
			}
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE && len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					lit, ok := ast.Unparen(s.Rhs[i]).(*ast.FuncLit)
					if !ok {
						continue
					}
					if obj := info.Defs[id]; obj != nil {
						localLits[obj] = append(localLits[obj], lit)
					}
				}
			}
		}
		return true
	})
	stackLit := make(map[*ast.FuncLit]bool)
	if len(localLits) > 0 {
		escaped := make(map[types.Object]bool)
		ast.Inspect(body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			if _, tracked := localLits[obj]; tracked && !calledFuns[id] {
				escaped[obj] = true
			}
			return true
		})
		for obj, ls := range localLits {
			if !escaped[obj] {
				for _, l := range ls {
					stackLit[l] = true
				}
			}
		}
	}
	inLoop := func(pos token.Pos) bool {
		for _, iv := range loops {
			if iv.lo <= pos && pos < iv.hi {
				return true
			}
		}
		return false
	}
	inPanicArg = func(pos token.Pos) bool {
		for _, iv := range panicArgs {
			if iv.lo <= pos && pos < iv.hi {
				return true
			}
		}
		return false
	}
	// sigAt returns the signature whose results govern a return statement
	// at pos: the innermost enclosing function literal, else the hot body
	// itself.
	sigAt := func(pos token.Pos) *types.Signature {
		sig := it.sig
		for _, ls := range lits {
			if ls.lo <= pos && pos < ls.hi {
				sig = ls.sig
			}
		}
		return sig
	}
	boxes := func(dst types.Type, src ast.Expr) bool {
		st := info.TypeOf(src)
		if st == nil || dst == nil {
			return false
		}
		if b, ok := st.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return false
		}
		return types.IsInterface(dst) && !types.IsInterface(st)
	}

	ast.Inspect(body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.CallExpr:
			checkHotCall(prog, info, s, emit, boxes)
		case *ast.FuncLit:
			if !calledFuns[s] && !stackLit[s] {
				emit(s.Pos(), "function literal allocates a closure")
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(s); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					emit(s.Pos(), "map literal allocates")
				case *types.Slice:
					emit(s.Pos(), "slice literal allocates its backing array")
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					emit(s.Pos(), "address-taken composite literal escapes to the heap")
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[s]; ok && sel.Kind() == types.MethodVal && !calledFuns[s] {
				emit(s.Pos(), "method value allocates a bound-method closure")
			}
		case *ast.BinaryExpr:
			if s.Op == token.ADD && (isString(info.TypeOf(s.X)) || isString(info.TypeOf(s.Y))) {
				emit(s.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isString(info.TypeOf(s.Lhs[0])) {
				emit(s.Pos(), "string concatenation allocates")
			}
			if s.Tok == token.ASSIGN && len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					if boxes(info.TypeOf(lhs), s.Rhs[i]) {
						emit(s.Rhs[i].Pos(), "assignment boxes a concrete value into an interface")
					}
				}
			}
			for _, lhs := range s.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if t := info.TypeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						emit(lhs.Pos(), "map write may allocate")
					}
				}
			}
		case *ast.ReturnStmt:
			sig := sigAt(s.Pos())
			if sig.Results().Len() == len(s.Results) {
				for i, res := range s.Results {
					if boxes(sig.Results().At(i).Type(), res) {
						emit(res.Pos(), "return boxes a concrete value into an interface")
					}
				}
			}
		case *ast.DeferStmt:
			if inLoop(s.Pos()) {
				emit(s.Pos(), "defer inside a loop allocates per iteration")
			}
		case *ast.GoStmt:
			emit(s.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
}

// checkHotCall handles the call-shaped allocation rules: builtins,
// conversions, variadic argument slices, and interface boxing of
// arguments.
func checkHotCall(prog *Program, info *types.Info, call *ast.CallExpr,
	emit func(token.Pos, string, ...any), boxes func(types.Type, ast.Expr) bool) {

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				emit(call.Pos(), "make allocates; hoist the buffer into a construction-time workspace")
			case "new":
				emit(call.Pos(), "new allocates; hoist the value into a construction-time workspace")
			case "append":
				emit(call.Pos(), "append may grow its backing array; pre-size the slice at construction")
			}
			return
		}
	}

	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, info.TypeOf(call.Args[0])
		if (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src)) {
			emit(call.Pos(), "string/slice conversion copies and allocates")
		}
		if boxes(dst, call.Args[0]) {
			emit(call.Pos(), "conversion boxes a concrete value into an interface")
		}
		return
	}

	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		emit(call.Pos(), "variadic call allocates its argument slice")
	}
	// Boxing of fixed (non-variadic-slot) arguments.
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
	}
	for i, arg := range call.Args {
		if i >= fixed {
			break
		}
		if boxes(sig.Params().At(i).Type(), arg) {
			emit(arg.Pos(), "argument boxes a concrete value into an interface")
		}
	}
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
