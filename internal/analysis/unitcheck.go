package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// AnalyzerUnitCheck is dimensional analysis for the flux paths: the
// coupler exchanges heat (W/m^2), freshwater (kg/m^2/s), and momentum
// (N/m^2) between components whose native state lives in K, m, and
// kg/m^3, and every hand-written conversion constant between them is a
// place where numerically plausible garbage can enter silently — the
// output still looks like an ocean. //foam:units annotations declare
// the dimension of fields, constants, parameters, and results;
// unitcheck propagates them through assignments, arithmetic, slice
// element flow, and depth-limited call edges, and reports:
//
//   - "+", "-", or a comparison combining two values of different
//     dimensions (adding a W/m^2 flux to a kg/m^2/s flux);
//   - assignments, composite literals, call arguments, and returns that
//     store a value into a slot declared with a different unit;
//   - "*=" / "/=" by a dimensioned factor, which silently changes a
//     declared unit in place;
//   - unannotated fields of partially annotated structs flowing into
//     annotated sinks (the annotation gap hiding a future mismatch).
//
// The algebra (unit.go) is affine-blind and constants are polymorphic:
// sstC + 273.15 and rain*dt/rhoWater type-check, while sstC + heatFlux
// does not. Anything the propagation cannot resolve is Unknown and
// never reported — the analyzer only speaks when both sides are proven.
var AnalyzerUnitCheck = &Analyzer{
	Name: "unitcheck",
	Doc:  "reports arithmetic, assignments, calls, and returns that combine //foam:units-annotated values of incompatible dimensions",
	Run:  runUnitCheck,
}

// ukind is the three-valued evaluation domain: Unknown (unannotated,
// never reported), Poly (a bare constant — identity under mul/div,
// compatible with anything under add/compare), and a proven Unit.
type ukind int

const (
	uUnknown ukind = iota
	uPoly
	uHasUnit
)

type uval struct {
	kind ukind
	unit Unit
}

func unknownVal() uval    { return uval{kind: uUnknown} }
func polyVal() uval       { return uval{kind: uPoly} }
func unitVal(u Unit) uval { return uval{kind: uHasUnit, unit: u} }

// unitCallDepth bounds interprocedural return-unit inference.
const unitCallDepth = 3

// unitChecker evaluates units against the program's pragma tables.
type unitChecker struct {
	prog *Program
}

// uctx is one evaluation context: a package, a local single-assignment
// scope, and (during return inference) parameter units bound from a
// call site.
type uctx struct {
	pkg *Package
	sc  *fnScope
	env map[types.Object]uval
}

func runUnitCheck(prog *Program, report func(Diagnostic)) {
	if len(prog.pragmas.units) == 0 && len(prog.pragmas.returnUnit) == 0 {
		return
	}
	uc := &unitChecker{prog: prog}
	for _, n := range prog.funcList {
		uc.checkFunc(n, report)
	}
}

// checkFunc reports every dimensional inconsistency inside one function
// body. Evaluation (eval) is pure; all reporting happens here so return
// inference re-evaluating a callee body never mis-attributes findings.
func (uc *unitChecker) checkFunc(n *funcNode, report func(Diagnostic)) {
	ctx := &uctx{pkg: n.pkg, sc: n.scope}
	fn := n.fn

	emit := func(pos token.Pos, format string, args ...any) {
		report(Diagnostic{
			Pos:     uc.prog.position(pos),
			Message: fmt.Sprintf(format, args...),
		})
	}

	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.BinaryExpr:
			uc.checkBinary(ctx, e, emit)
		case *ast.AssignStmt:
			uc.checkAssign(ctx, e, emit)
		case *ast.CallExpr:
			uc.checkCallArgs(ctx, e, emit)
		case *ast.CompositeLit:
			uc.checkCompositeLit(ctx, e, emit)
		case *ast.ReturnStmt:
			uc.checkReturn(ctx, fn, e, emit)
		case *ast.FuncLit:
			// Literals are checked in place with the enclosing scope:
			// they see the same locals and annotations.
		}
		return true
	})
}

// checkBinary reports "+", "-", and comparisons whose operands are both
// proven to carry units and the units differ.
func (uc *unitChecker) checkBinary(ctx *uctx, e *ast.BinaryExpr, emit func(token.Pos, string, ...any)) {
	switch e.Op {
	case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	if isString(ctx.pkg.Info.TypeOf(e.X)) {
		return // string concatenation / comparison
	}
	l := uc.eval(ctx, e.X, 0)
	r := uc.eval(ctx, e.Y, 0)
	if l.kind == uHasUnit && r.kind == uHasUnit && !l.unit.Equal(r.unit) {
		emit(e.OpPos, "unit mismatch: %q combines %s (%s) and %s (%s)",
			e.Op.String(), types.ExprString(e.X), l.unit.Canonical(), types.ExprString(e.Y), r.unit.Canonical())
	}
}

// checkAssign reports stores whose destination slot declares a unit the
// stored value provably does not have, "*="/"/=" by a dimensioned
// factor, and unannotated fields flowing into annotated sinks.
func (uc *unitChecker) checkAssign(ctx *uctx, st *ast.AssignStmt, emit func(token.Pos, string, ...any)) {
	if len(st.Lhs) != len(st.Rhs) {
		return // multi-value call or comma-ok: nothing to resolve
	}
	for i, lhs := range st.Lhs {
		rhs := st.Rhs[i]
		declared, ok := uc.declaredUnitOf(ctx, lhs)
		if !ok {
			continue
		}
		switch st.Tok {
		case token.MUL_ASSIGN, token.QUO_ASSIGN:
			// x *= f keeps x's unit only when f is dimensionless.
			v := uc.eval(ctx, rhs, 0)
			if v.kind == uHasUnit && !v.unit.Dimensionless() {
				emit(st.TokPos, "unit mismatch: %q by %s (%s) changes %s from its declared %s in place",
					st.Tok.String(), types.ExprString(rhs), v.unit.Canonical(), types.ExprString(lhs), declared.Canonical())
			}
		default:
			// =, +=, -= and friends: the incoming value must match.
			v := uc.eval(ctx, rhs, 0)
			switch v.kind {
			case uHasUnit:
				if !v.unit.Equal(declared) {
					emit(st.TokPos, "unit mismatch: storing %s (%s) into %s declared %s",
						types.ExprString(rhs), v.unit.Canonical(), types.ExprString(lhs), declared.Canonical())
				}
			case uUnknown:
				uc.checkSink(ctx, rhs, declared, types.ExprString(lhs), st.TokPos, emit)
			}
		}
	}
}

// checkSink implements the annotation-gap rule: storing an unannotated
// field of a *partially annotated* struct into a unit-declared slot is
// reported, because the missing annotation is exactly where the next
// dimensional bug hides. Fully unannotated structs are out of scope —
// the rule only bites where the unit discipline has already been
// adopted.
func (uc *unitChecker) checkSink(ctx *uctx, rhs ast.Expr, declared Unit, dst string, pos token.Pos, emit func(token.Pos, string, ...any)) {
	sel, fieldObj := uc.unannotatedFieldRoot(ctx, rhs, 0)
	if fieldObj == nil {
		return
	}
	ownerT := ctx.pkg.Info.TypeOf(sel.X)
	tn := namedOf(ownerT)
	if tn == nil || !uc.structPartiallyAnnotated(tn) {
		return
	}
	emit(pos, "unannotated field %s of %s flows into %s declared %s; annotate %s.%s with //foam:units",
		types.ExprString(rhs), tn.Name(), dst, declared.Canonical(), tn.Name(), fieldObj.Name())
}

// unannotatedFieldRoot unwraps parens, indexes, derefs, unary sign, and
// numeric conversions — but not arithmetic — and returns the root field
// selection when it resolves to a struct field with no declared unit.
func (uc *unitChecker) unannotatedFieldRoot(ctx *uctx, e ast.Expr, depth int) (*ast.SelectorExpr, types.Object) {
	if depth > maxDepth {
		return nil, nil
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return uc.unannotatedFieldRoot(ctx, e.X, depth+1)
	case *ast.StarExpr:
		return uc.unannotatedFieldRoot(ctx, e.X, depth+1)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return uc.unannotatedFieldRoot(ctx, e.X, depth+1)
		}
	case *ast.CallExpr:
		if tv, ok := ctx.pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return uc.unannotatedFieldRoot(ctx, e.Args[0], depth+1)
		}
	case *ast.SelectorExpr:
		obj := fieldObjOf(ctx.pkg, e)
		if obj == nil {
			return nil, nil
		}
		if _, annotated := uc.prog.pragmas.units[obj]; annotated {
			return nil, nil
		}
		if !unitTargetOK(obj.Type()) {
			return nil, nil // non-numeric fields cannot carry units anyway
		}
		return e, obj
	}
	return nil, nil
}

// structPartiallyAnnotated reports whether any field of tn's underlying
// struct carries a //foam:units annotation.
func (uc *unitChecker) structPartiallyAnnotated(tn *types.TypeName) bool {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := uc.prog.pragmas.units[st.Field(i)]; ok {
			return true
		}
	}
	return false
}

// checkCallArgs reports arguments whose proven unit contradicts the
// callee's //foam:units parameter declarations, and dimensionally
// inconsistent math.Max/Min/Hypot/Mod pairs.
func (uc *unitChecker) checkCallArgs(ctx *uctx, call *ast.CallExpr, emit func(token.Pos, string, ...any)) {
	fn := staticCallee(ctx.pkg.Info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "math" && len(call.Args) == 2 {
		switch fn.Name() {
		case "Max", "Min", "Hypot", "Mod", "Dim", "Remainder":
			l := uc.eval(ctx, call.Args[0], 0)
			r := uc.eval(ctx, call.Args[1], 0)
			if l.kind == uHasUnit && r.kind == uHasUnit && !l.unit.Equal(r.unit) {
				emit(call.Pos(), "unit mismatch: math.%s combines %s (%s) and %s (%s)",
					fn.Name(), types.ExprString(call.Args[0]), l.unit.Canonical(), types.ExprString(call.Args[1]), r.unit.Canonical())
			}
			return
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		n-- // the variadic tail is a slice; element matching is out of scope
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		p := params.At(i)
		declared, ok := uc.prog.pragmas.units[p]
		if !ok {
			continue
		}
		v := uc.eval(ctx, call.Args[i], 0)
		switch v.kind {
		case uHasUnit:
			if !v.unit.Equal(declared) {
				emit(call.Args[i].Pos(), "unit mismatch: argument %s (%s) passed to parameter %s of %s declared %s",
					types.ExprString(call.Args[i]), v.unit.Canonical(), p.Name(), fn.Name(), declared.Canonical())
			}
		case uUnknown:
			uc.checkSink(ctx, call.Args[i], declared, "parameter "+p.Name()+" of "+fn.Name(), call.Args[i].Pos(), emit)
		}
	}
}

// checkCompositeLit reports keyed struct literal fields initialized
// with a value of the wrong dimension.
func (uc *unitChecker) checkCompositeLit(ctx *uctx, lit *ast.CompositeLit, emit func(token.Pos, string, ...any)) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		fieldObj := ctx.pkg.Info.Uses[key]
		if fieldObj == nil {
			continue
		}
		declared, ok := uc.prog.pragmas.units[fieldObj]
		if !ok {
			continue
		}
		v := uc.eval(ctx, kv.Value, 0)
		if v.kind == uHasUnit && !v.unit.Equal(declared) {
			emit(kv.Value.Pos(), "unit mismatch: field %s declared %s initialized with %s (%s)",
				key.Name, declared.Canonical(), types.ExprString(kv.Value), v.unit.Canonical())
		}
	}
}

// checkReturn reports returned values contradicting the function's
// declared result units (//foam:units return= or named results).
func (uc *unitChecker) checkReturn(ctx *uctx, fn *types.Func, st *ast.ReturnStmt, emit func(token.Pos, string, ...any)) {
	if fn == nil || len(st.Results) == 0 {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != len(st.Results) {
		return
	}
	for i, res := range st.Results {
		declared, ok := uc.prog.pragmas.units[sig.Results().At(i)]
		if !ok {
			if i == 0 && sig.Results().Len() == 1 {
				declared, ok = uc.prog.pragmas.returnUnit[fn]
			}
			if !ok {
				continue
			}
		}
		v := uc.eval(ctx, res, 0)
		if v.kind == uHasUnit && !v.unit.Equal(declared) {
			emit(res.Pos(), "unit mismatch: returning %s (%s) from %s declared %s",
				types.ExprString(res), v.unit.Canonical(), fn.Name(), declared.Canonical())
		}
	}
}

// declaredUnitOf resolves the unit a store destination declares:
// indexes and derefs reach the annotated element, selectors the
// annotated field, identifiers the annotated var or parameter.
func (uc *unitChecker) declaredUnitOf(ctx *uctx, e ast.Expr) (Unit, bool) {
	for depth := 0; depth <= maxDepth; depth++ {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if obj := fieldObjOf(ctx.pkg, x); obj != nil {
				u, ok := uc.prog.pragmas.units[obj]
				return u, ok
			}
			if obj := ctx.pkg.Info.Uses[x.Sel]; obj != nil {
				u, ok := uc.prog.pragmas.units[obj]
				return u, ok
			}
			return nil, false
		case *ast.Ident:
			obj := ctx.sc.obj(x)
			if obj == nil {
				return nil, false
			}
			u, ok := uc.prog.pragmas.units[obj]
			return u, ok
		default:
			return nil, false
		}
	}
	return nil, false
}

// eval resolves an expression to its dimensional value. It is pure —
// no reporting — so it can re-evaluate callee bodies during return
// inference without mis-attributing findings.
func (uc *unitChecker) eval(ctx *uctx, e ast.Expr, depth int) uval {
	if depth > 4*maxDepth {
		return unknownVal()
	}
	e = ast.Unparen(e)

	// Constant expressions are polymorphic — unless they are a direct
	// reference to an annotated constant, which keeps its dimension, or
	// a compound constant expression that mentions one (0.97*StefBo is
	// still W/m^2/K^4): those fall through to structural evaluation.
	if tv, ok := ctx.pkg.Info.Types[e]; ok && tv.Value != nil {
		if obj := constObjOf(ctx.pkg, e); obj != nil {
			if u, ok := uc.prog.pragmas.units[obj]; ok {
				return unitVal(u)
			}
		}
		if _, compound := e.(*ast.BinaryExpr); !compound {
			return polyVal()
		}
	}

	switch e := e.(type) {
	case *ast.Ident:
		obj := ctx.sc.obj(e)
		if obj == nil {
			return unknownVal()
		}
		if v, ok := ctx.env[obj]; ok {
			return v
		}
		if u, ok := uc.prog.pragmas.units[obj]; ok {
			return unitVal(u)
		}
		if v, ok := obj.(*types.Var); ok {
			if rhs, rec := ctx.sc.single[v]; rec && rhs != nil && ast.Unparen(rhs) != e {
				return uc.eval(ctx, rhs, depth+1)
			}
		}
		return unknownVal()

	case *ast.SelectorExpr:
		if obj := fieldObjOf(ctx.pkg, e); obj != nil {
			if u, ok := uc.prog.pragmas.units[obj]; ok {
				return unitVal(u)
			}
			return unknownVal()
		}
		if obj := ctx.pkg.Info.Uses[e.Sel]; obj != nil {
			if u, ok := uc.prog.pragmas.units[obj]; ok {
				return unitVal(u)
			}
		}
		return unknownVal()

	case *ast.IndexExpr:
		// Slice/array annotations declare the element unit, so element
		// access preserves the container's dimensional value.
		return uc.eval(ctx, e.X, depth+1)

	case *ast.StarExpr:
		return uc.eval(ctx, e.X, depth+1)

	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return uc.eval(ctx, e.X, depth+1)
		}
		return unknownVal()

	case *ast.BinaryExpr:
		return uc.evalBinary(ctx, e, depth)

	case *ast.CallExpr:
		return uc.evalCall(ctx, e, depth)
	}
	return unknownVal()
}

// evalBinary implements the dimensional semantics of the arithmetic
// operators over the three-valued domain.
func (uc *unitChecker) evalBinary(ctx *uctx, e *ast.BinaryExpr, depth int) uval {
	l := uc.eval(ctx, e.X, depth+1)
	r := uc.eval(ctx, e.Y, depth+1)
	switch e.Op {
	case token.MUL:
		switch {
		case l.kind == uHasUnit && r.kind == uHasUnit:
			return unitVal(l.unit.Mul(r.unit))
		case l.kind == uHasUnit && r.kind == uPoly:
			return l
		case l.kind == uPoly && r.kind == uHasUnit:
			return r
		case l.kind == uPoly && r.kind == uPoly:
			return polyVal()
		}
	case token.QUO:
		switch {
		case l.kind == uHasUnit && r.kind == uHasUnit:
			return unitVal(l.unit.Div(r.unit))
		case l.kind == uHasUnit && r.kind == uPoly:
			return l
		case l.kind == uPoly && r.kind == uHasUnit:
			return unitVal(Unit{}.Div(r.unit))
		case l.kind == uPoly && r.kind == uPoly:
			return polyVal()
		}
	case token.ADD, token.SUB:
		// Mismatches are findings (checkBinary); the value flows on as
		// whichever side is proven, constants adopting the other side.
		switch {
		case l.kind == uHasUnit && r.kind == uHasUnit && l.unit.Equal(r.unit):
			return l
		case l.kind == uHasUnit && r.kind == uPoly:
			return l
		case l.kind == uPoly && r.kind == uHasUnit:
			return r
		case l.kind == uPoly && r.kind == uPoly:
			return polyVal()
		}
	}
	return unknownVal()
}

// evalCall resolves calls: numeric conversions are transparent, the
// math vocabulary has fixed dimensional semantics, and module-local
// callees get depth-limited return inference with the caller's argument
// units bound to the callee's parameters.
func (uc *unitChecker) evalCall(ctx *uctx, call *ast.CallExpr, depth int) uval {
	// Conversions: float64(x) keeps x's dimension.
	if tv, ok := ctx.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return uc.eval(ctx, call.Args[0], depth+1)
	}
	fn := staticCallee(ctx.pkg.Info, call)
	if fn == nil {
		return unknownVal()
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "math" {
		return uc.evalMathCall(ctx, fn, call, depth)
	}
	if u, ok := uc.prog.pragmas.returnUnit[fn]; ok {
		return unitVal(u)
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return unknownVal()
	}
	if sig.Results().Len() == 1 {
		if u, ok := uc.prog.pragmas.units[sig.Results().At(0)]; ok {
			return unitVal(u)
		}
	}

	// Depth-limited return inference over module-local bodies: bind the
	// caller's argument units to the callee's parameters, evaluate every
	// return expression, and keep the unit only when they agree.
	if depth >= unitCallDepth*maxDepth {
		return unknownVal()
	}
	node := uc.prog.funcs[fn]
	if node == nil || sig.Results().Len() != 1 {
		return unknownVal()
	}
	env := make(map[types.Object]uval)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sig.Recv() != nil {
		env[sig.Recv()] = uc.eval(ctx, sel.X, depth+1)
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		n--
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		env[params.At(i)] = uc.eval(ctx, call.Args[i], depth+1)
	}
	callee := &uctx{pkg: node.pkg, sc: node.scope, env: env}

	result := polyVal()
	seen := false
	bad := false
	ast.Inspect(node.decl.Body, func(x ast.Node) bool {
		if bad {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // inner returns belong to the literal
		case *ast.ReturnStmt:
			if len(x.Results) != 1 {
				bad = true
				return false
			}
			v := uc.eval(callee, x.Results[0], depth+maxDepth)
			switch v.kind {
			case uUnknown:
				bad = true
			case uPoly:
				// compatible with anything; keep the running value
			case uHasUnit:
				if seen && result.kind == uHasUnit && !result.unit.Equal(v.unit) {
					bad = true
				} else {
					result = v
					seen = true
				}
			}
		}
		return true
	})
	if bad {
		return unknownVal()
	}
	if !seen {
		return polyVal()
	}
	return result
}

// evalMathCall gives the math functions used on the flux paths their
// dimensional semantics.
func (uc *unitChecker) evalMathCall(ctx *uctx, fn *types.Func, call *ast.CallExpr, depth int) uval {
	arg := func(i int) uval {
		if i >= len(call.Args) {
			return unknownVal()
		}
		return uc.eval(ctx, call.Args[i], depth+1)
	}
	switch fn.Name() {
	case "Abs", "Floor", "Ceil", "Trunc", "Round", "Copysign", "Mod", "Remainder", "Dim":
		return arg(0)
	case "Max", "Min", "Hypot":
		l, r := arg(0), arg(1)
		switch {
		case l.kind == uHasUnit && r.kind == uHasUnit && l.unit.Equal(r.unit):
			return l
		case l.kind == uHasUnit && r.kind == uPoly:
			return l
		case l.kind == uPoly && r.kind == uHasUnit:
			return r
		case l.kind == uPoly && r.kind == uPoly:
			return polyVal()
		}
		return unknownVal()
	case "Sqrt":
		v := arg(0)
		if v.kind == uHasUnit {
			if root, ok := v.unit.Root(2); ok {
				return unitVal(root)
			}
			return unknownVal()
		}
		return v
	case "Cbrt":
		v := arg(0)
		if v.kind == uHasUnit {
			if root, ok := v.unit.Root(3); ok {
				return unitVal(root)
			}
			return unknownVal()
		}
		return v
	case "Pow":
		base := arg(0)
		if base.kind != uHasUnit {
			return base
		}
		if len(call.Args) == 2 {
			if tv, ok := ctx.pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil {
				// ToInt yields an Int only when the exponent is exactly
				// integral, so Pow(x, 4.0) propagates and Pow(x, 0.5)
				// stays unknown.
				if iv := constant.ToInt(tv.Value); iv.Kind() == constant.Int {
					if n, ok := constant.Int64Val(iv); ok {
						return unitVal(base.unit.Pow(int(n)))
					}
				}
			}
		}
		return unknownVal()
	}
	return unknownVal()
}

// constObjOf resolves a constant-valued expression to the *types.Const
// it directly references, or nil for computed constant expressions.
func constObjOf(pkg *Package, e ast.Expr) types.Object {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	if obj, ok := pkg.Info.Uses[id].(*types.Const); ok {
		return obj
	}
	return nil
}
