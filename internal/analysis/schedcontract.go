package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerSchedContract statically verifies sched.Program construction
// against the sched.Component import/export declarations. The layered
// core's correctness rests on three contracts that today only fail at
// runtime (a default-panic in an Import switch, or worse, a silently
// unserved import that drifts the coupled state):
//
//   - every field a component declares in Imports() must be exported by
//     another component, and every export must have a consumer;
//   - the Import/ExportInto dispatch switches must cover exactly the
//     declared field lists — an undeclared case is a transfer the
//     schedule compiler will never produce, a missing case is the
//     default panic waiting for the first coupling tick;
//   - where a schedule builder branches on the coupling lag, both
//     branches must append the same multiset of ops (order differs by
//     construction; coverage must not), and every OpXfer needs an
//     OpStep/OpCouple producing its source component in the same
//     program.
//
// Declarations resolve through package-level composite literals of
// Field constants (the repo's idiom); anything unresolvable — computed
// lists, unkeyed Op literals, conditional construction the walk cannot
// expand — is silently skipped rather than guessed at.
var AnalyzerSchedContract = &Analyzer{
	Name: "schedcontract",
	Doc:  "verifies sched.Program construction against Component import/export declarations: producers, switch coverage, lag-branch parity",
	Run:  runSchedContract,
}

// isSchedNamed reports whether t (after pointer unwrap) is the named
// type name declared in an internal/sched package.
func isSchedNamed(t types.Type, name string) bool {
	tn := namedOf(t)
	return tn != nil && tn.Name() == name && tn.Pkg() != nil &&
		strings.HasSuffix(tn.Pkg().Path(), "internal/sched")
}

// schedComponent is one resolved Component implementation.
type schedComponent struct {
	recv     *types.TypeName
	pkg      *Package
	imports  []fieldRef
	exports  []fieldRef
	resolved bool
}

// fieldRef is one declared field with the position of its declaration
// element for precise reporting.
type fieldRef struct {
	obj *types.Const
	pos ast.Expr
}

func runSchedContract(prog *Program, report func(Diagnostic)) {
	comps := collectComponents(prog)
	checkProducers(prog, comps, report)
	checkDispatchSwitches(prog, comps, report)
	checkOpStreams(prog, report)
}

// collectComponents finds every module type with Imports()/Exports()
// methods returning []sched.Field and resolves the declared lists.
func collectComponents(prog *Program) []*schedComponent {
	byRecv := make(map[*types.TypeName]*schedComponent)
	var order []*types.TypeName
	for _, node := range prog.funcList {
		name := node.fn.Name()
		if name != "Imports" && name != "Exports" {
			continue
		}
		sig, ok := node.fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			continue
		}
		slice, ok := sig.Results().At(0).Type().Underlying().(*types.Slice)
		if !ok || !isSchedNamed(slice.Elem(), "Field") {
			continue
		}
		recv := namedOf(sig.Recv().Type())
		if recv == nil {
			continue
		}
		comp := byRecv[recv]
		if comp == nil {
			comp = &schedComponent{recv: recv, pkg: node.pkg, resolved: true}
			byRecv[recv] = comp
			order = append(order, recv)
		}
		refs, ok := resolveFieldList(node.pkg, node.decl.Body)
		if !ok {
			comp.resolved = false
			continue
		}
		if name == "Imports" {
			comp.imports = refs
		} else {
			comp.exports = refs
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Name() < order[j].Name() })
	var comps []*schedComponent
	for _, recv := range order {
		comps = append(comps, byRecv[recv])
	}
	return comps
}

// resolveFieldList resolves an Imports/Exports body — a single return
// of a composite literal or of a package-level var initialized with one
// — to the ordered Field constants.
func resolveFieldList(pkg *Package, body *ast.BlockStmt) ([]fieldRef, bool) {
	if len(body.List) != 1 {
		return nil, false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil, false
	}
	lit := compositeListOf(pkg, ret.Results[0], 0)
	if lit == nil {
		return nil, false
	}
	var refs []fieldRef
	for _, elt := range lit.Elts {
		c := fieldConstOf(pkg, elt)
		if c == nil {
			return nil, false
		}
		refs = append(refs, fieldRef{obj: c, pos: elt})
	}
	return refs, true
}

// compositeListOf resolves expr to a composite literal, following
// package-level vars to their initializer.
func compositeListOf(pkg *Package, expr ast.Expr, depth int) *ast.CompositeLit {
	if depth > maxDepth {
		return nil
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return e
	case *ast.Ident:
		v, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok {
			return nil
		}
		if init := pkgVarInit(pkg, v); init != nil {
			return compositeListOf(pkg, init, depth+1)
		}
	}
	return nil
}

// pkgVarInit finds the initializer expression of a package-level var.
func pkgVarInit(pkg *Package, v *types.Var) ast.Expr {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if pkg.Info.Defs[name] == v && i < len(vs.Values) {
						return vs.Values[i]
					}
				}
			}
		}
	}
	return nil
}

// fieldConstOf resolves expr to a sched.Field constant.
func fieldConstOf(pkg *Package, expr ast.Expr) *types.Const {
	var obj types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[e.Sel]
	}
	c, ok := obj.(*types.Const)
	if !ok || !isSchedNamed(c.Type(), "Field") {
		return nil
	}
	return c
}

// checkProducers enforces the cross-component field economy: with two
// or more resolved components in one package, every import needs an
// exporter and every export a consumer. The scope is per package — a
// coupled core's components live together, and an exporter in an
// unrelated package cannot serve an import here.
func checkProducers(prog *Program, comps []*schedComponent, report func(Diagnostic)) {
	byPkg := make(map[*Package][]*schedComponent)
	for _, c := range comps {
		if c.resolved {
			byPkg[c.pkg] = append(byPkg[c.pkg], c)
		}
	}
	for _, resolved := range byPkg {
		checkPkgProducers(prog, resolved, report)
	}
}

func checkPkgProducers(prog *Program, resolved []*schedComponent, report func(Diagnostic)) {
	if len(resolved) < 2 {
		return
	}
	for _, c := range resolved {
		for _, imp := range c.imports {
			if !declaredByOther(resolved, c, imp.obj, false) {
				report(Diagnostic{
					Pos: prog.position(imp.pos.Pos()),
					Message: fmt.Sprintf("component %s imports %s but no other component exports it; every declared import needs a producer",
						c.recv.Name(), imp.obj.Name()),
				})
			}
		}
		for _, exp := range c.exports {
			if !declaredByOther(resolved, c, exp.obj, true) {
				report(Diagnostic{
					Pos: prog.position(exp.pos.Pos()),
					Message: fmt.Sprintf("component %s exports %s but no other component imports it; dead exports hide wiring mistakes",
						c.recv.Name(), exp.obj.Name()),
				})
			}
		}
	}
}

func declaredByOther(comps []*schedComponent, self *schedComponent, f *types.Const, asImport bool) bool {
	for _, c := range comps {
		if c == self {
			continue
		}
		list := c.exports
		if asImport {
			list = c.imports
		}
		for _, ref := range list {
			if ref.obj == f {
				return true
			}
		}
	}
	return false
}

// checkDispatchSwitches verifies that each component's Import and
// ExportInto field switches cover exactly the declared lists.
func checkDispatchSwitches(prog *Program, comps []*schedComponent, report func(Diagnostic)) {
	byRecv := make(map[*types.TypeName]*schedComponent)
	for _, c := range comps {
		if c.resolved {
			byRecv[c.recv] = c
		}
	}
	for _, node := range prog.funcList {
		name := node.fn.Name()
		if name != "Import" && name != "ExportInto" {
			continue
		}
		sig, ok := node.fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		comp := byRecv[namedOf(sig.Recv().Type())]
		if comp == nil {
			continue
		}
		declared := comp.imports
		listName := "Imports"
		if name == "ExportInto" {
			declared = comp.exports
			listName = "Exports"
		}
		// The dispatch switch is the one whose tag is the Field param.
		var param types.Object
		for i := 0; i < sig.Params().Len(); i++ {
			if isSchedNamed(sig.Params().At(i).Type(), "Field") {
				param = sig.Params().At(i)
				break
			}
		}
		if param == nil {
			continue
		}
		var sw *ast.SwitchStmt
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			s, ok := n.(*ast.SwitchStmt)
			if !ok || s.Tag == nil || sw != nil {
				return true
			}
			if id, ok := ast.Unparen(s.Tag).(*ast.Ident); ok && node.pkg.Info.Uses[id] == param {
				sw = s
				return false
			}
			return true
		})
		if sw == nil {
			continue
		}
		handled := make(map[*types.Const]bool)
		resolvable := true
		for _, cc := range sw.Body.List {
			clause, ok := cc.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range clause.List {
				f := fieldConstOf(node.pkg, e)
				if f == nil {
					resolvable = false
					continue
				}
				handled[f] = true
				if !inRefs(declared, f) {
					report(Diagnostic{
						Pos: prog.position(e.Pos()),
						Message: fmt.Sprintf("%s.%s handles %s, which is not declared in %s(); the schedule compiler will never produce this transfer",
							comp.recv.Name(), name, f.Name(), listName),
					})
				}
			}
		}
		if !resolvable {
			continue
		}
		for _, ref := range declared {
			if !handled[ref.obj] {
				report(Diagnostic{
					Pos: prog.position(sw.Pos()),
					Message: fmt.Sprintf("%s.%s is missing a case for declared %s field %s; the first coupling tick would hit the default panic",
						comp.recv.Name(), name, strings.ToLower(listName), ref.obj.Name()),
				})
			}
		}
	}
}

func inRefs(refs []fieldRef, f *types.Const) bool {
	for _, r := range refs {
		if r.obj == f {
			return true
		}
	}
	return false
}

// ---- op-stream rules ----

// opLit is one keyed sched.Op composite literal, normalized to
// key→value strings (constants folded to their values).
type opLit struct {
	lit    *ast.CompositeLit
	fields map[string]string
}

func (o opLit) get(key string) string {
	if v, ok := o.fields[key]; ok {
		return v
	}
	return "0" // elided struct fields are zero-valued
}

func (o opLit) render() string {
	keys := make([]string, 0, len(o.fields))
	for k := range o.fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+o.fields[k])
	}
	return strings.Join(parts, " ")
}

// checkOpStreams applies the per-function op rules: OpXfer sources need
// a producing OpStep/OpCouple, and if/else schedule branches must
// append equal op multisets.
func checkOpStreams(prog *Program, report func(Diagnostic)) {
	for _, n := range prog.funcList {
		checkOpFunc(prog, n.pkg, n.scope, n.decl, report)
	}
}

func checkOpFunc(prog *Program, pkg *Package, sc *fnScope, fd *ast.FuncDecl, report func(Diagnostic)) {
	var ops []opLit
	analyzable := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(lit)
		if t == nil || !isSchedNamed(t, "Op") {
			return true
		}
		o, ok := normalizeOpLit(pkg, lit)
		if !ok {
			analyzable = false
			return true
		}
		ops = append(ops, o)
		return true
	})
	if len(ops) == 0 || !analyzable {
		return
	}
	// Rule: every OpXfer source component steps or couples here.
	kinds := opKindValues(ops, pkg)
	for _, o := range ops {
		if kinds[o.get("Kind")] != "OpXfer" {
			continue
		}
		src := o.get("Src")
		produced := false
		for _, p := range ops {
			k := kinds[p.get("Kind")]
			if (k == "OpStep" || k == "OpCouple") && p.get("Comp") == src {
				produced = true
				break
			}
		}
		if !produced {
			report(Diagnostic{
				Pos: prog.position(o.lit.Pos()),
				Message: fmt.Sprintf("OpXfer from component %s has no OpStep or OpCouple for that component in this program; a transfer source that never steps exports stale state",
					src),
			})
		}
	}
	// Rule: lag-style if/else branches append equal op multisets.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Else == nil {
			return true
		}
		elseBlock, ok := ifs.Else.(*ast.BlockStmt)
		if !ok {
			return true
		}
		thenOps, thenTargets, okA := branchAppendedOps(pkg, sc, ifs.Body)
		elseOps, elseTargets, okB := branchAppendedOps(pkg, sc, elseBlock)
		if !okA || !okB || len(thenOps) == 0 || len(elseOps) == 0 {
			return true
		}
		// Compare only when both branches build the same op slice.
		common := false
		for t := range thenTargets {
			if elseTargets[t] {
				common = true
			}
		}
		if !common {
			return true
		}
		if diff := multisetDiff(thenOps, elseOps); diff != "" {
			report(Diagnostic{
				Pos: prog.position(ifs.Pos()),
				Message: fmt.Sprintf("schedule branches append different op sets (%s); lag variants may reorder ops but must cover the same steps and transfers",
					diff),
			})
		}
		return true
	})
}

// normalizeOpLit renders a keyed Op literal to key→value strings;
// unkeyed literals are unanalyzable.
func normalizeOpLit(pkg *Package, lit *ast.CompositeLit) (opLit, bool) {
	o := opLit{lit: lit, fields: make(map[string]string)}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return o, false
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			return o, false
		}
		o.fields[key.Name] = renderOpValue(pkg, kv.Value)
	}
	return o, true
}

// renderOpValue folds constants to values so "OpXfer" written as a
// package-qualified or local name renders identically.
func renderOpValue(pkg *Package, expr ast.Expr) string {
	if tv, ok := pkg.Info.Types[expr]; ok && tv.Value != nil {
		return tv.Value.ExactString()
	}
	return types.ExprString(expr)
}

// opKindValues maps rendered Kind values back to the OpStep / OpCouple
// / OpXfer constant names via the sched package's constant values.
func opKindValues(ops []opLit, pkg *Package) map[string]string {
	out := make(map[string]string)
	resolve := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !isSchedNamed(c.Type(), "OpKind") {
				continue
			}
			out[c.Val().ExactString()] = name
		}
	}
	resolve(pkg.Types)
	for _, imp := range pkg.Types.Imports() {
		if strings.HasSuffix(imp.Path(), "internal/sched") {
			resolve(imp)
		}
	}
	return out
}

// branchAppendedOps collects the ops appended within one branch block:
// append(target, Op{...}) element args and append(target, local...)
// spreads where local is a single-assignment []Op composite literal.
func branchAppendedOps(pkg *Package, sc *fnScope, block *ast.BlockStmt) ([]string, map[types.Object]bool, bool) {
	var rendered []string
	targets := make(map[types.Object]bool)
	ok := true
	ast.Inspect(block, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !isCall {
			return true
		}
		id, isID := ast.Unparen(call.Fun).(*ast.Ident)
		if !isID {
			return true
		}
		if b, isB := pkg.Info.Uses[id].(*types.Builtin); !isB || b.Name() != "append" {
			return true
		}
		tgt, isTgt := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !isTgt {
			return true
		}
		tobj := sc.obj(tgt)
		slice, isSlice := pkg.Info.TypeOf(tgt).Underlying().(*types.Slice)
		if tobj == nil || !isSlice || !isSchedNamed(slice.Elem(), "Op") {
			return true
		}
		targets[tobj] = true
		args := call.Args[1:]
		if call.Ellipsis.IsValid() {
			// append(ops, couple...): expand the spread source.
			if len(args) != 1 {
				ok = false
				return true
			}
			lit := spreadSource(pkg, sc, args[0])
			if lit == nil {
				ok = false
				return true
			}
			args = lit.Elts
		}
		for _, a := range args {
			opc, isOp := ast.Unparen(a).(*ast.CompositeLit)
			if !isOp {
				ok = false
				continue
			}
			o, isKeyed := normalizeOpLit(pkg, opc)
			if !isKeyed {
				ok = false
				continue
			}
			rendered = append(rendered, o.render())
		}
		return true
	})
	return rendered, targets, ok
}

// spreadSource resolves the argument of an append spread to a []Op
// composite literal via the single-assignment local walk.
func spreadSource(pkg *Package, sc *fnScope, expr ast.Expr) *ast.CompositeLit {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return e
	case *ast.Ident:
		if v, ok := sc.obj(e).(*types.Var); ok {
			if rhs, rec := sc.single[v]; rec && rhs != nil {
				if lit, isLit := ast.Unparen(rhs).(*ast.CompositeLit); isLit {
					return lit
				}
			}
		}
	}
	return nil
}

// multisetDiff returns "" when the two rendered multisets match, or a
// compact missing/extra description.
func multisetDiff(a, b []string) string {
	count := make(map[string]int)
	for _, s := range a {
		count[s]++
	}
	for _, s := range b {
		count[s]--
	}
	var missing, extra []string
	for s, n := range count {
		for i := 0; i < n; i++ {
			missing = append(missing, s)
		}
		for i := 0; i < -n; i++ {
			extra = append(extra, s)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	var parts []string
	if len(missing) > 0 {
		parts = append(parts, "only first branch: "+strings.Join(missing, ", "))
	}
	if len(extra) > 0 {
		parts = append(parts, "only second branch: "+strings.Join(extra, ", "))
	}
	return strings.Join(parts, "; ")
}
