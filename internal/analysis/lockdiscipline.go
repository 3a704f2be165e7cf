package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerLockDiscipline enforces the documented locking contracts of
// the ensemble tier (internal/ensemble, cmd/foam-serve) and every other
// mutex in the module:
//
//   - every sync.Mutex/RWMutex struct field must declare what it
//     protects with //foam:guards;
//   - every access to a guarded field must happen with the declared
//     mutex held (functions named *Locked are the callers-hold-it
//     convention and are exempt, as are writes to freshly constructed
//     values that have not escaped yet);
//   - no mutex may be held across a blocking operation: channel send or
//     receive, select without a default, sync.WaitGroup.Wait,
//     time.Sleep, or a worker-pool handoff (pool.Pool.Run). This is
//     what keeps the ErrBusy fast-fail paths fast — a scheduler that
//     blocks while holding the member lock stalls every other member.
//
// The lock state is tracked per function through a structured
// statement walk: branches merge, loops must preserve the entry state,
// and a merge of conflicting states poisons the function (no further
// findings) rather than guessing. sync.Cond Wait/Signal/Broadcast are
// exempt (Wait releases the mutex by contract). The deliberate
// exceptions — the ensemble's buffered done-channel handoff — carry
// //foam:allow lockdiscipline with the invariant that makes them safe.
var AnalyzerLockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "reports undeclared mutex guard sets, guarded-field access without the lock, and blocking operations while a mutex is held",
	Run:  runLockDiscipline,
}

func runLockDiscipline(prog *Program, report func(Diagnostic)) {
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok == token.TYPE {
						checkGuardDecls(prog, pkg, d, report)
					}
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					c := &lockChecker{
						prog:      prog,
						pkg:       pkg,
						sc:        newFnScope(pkg, d.Body),
						skipGuard: strings.HasSuffix(d.Name.Name, "Locked"),
						report:    report,
					}
					c.walkBody(d.Body)
				}
			}
		}
	}
}

// checkGuardDecls reports mutex struct fields without a //foam:guards
// declaration (rule A: an undeclared guard set is an unenforced one).
func checkGuardDecls(prog *Program, pkg *Package, gd *ast.GenDecl, report func(Diagnostic)) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			if len(field.Names) == 0 {
				if tv := pkg.Info.TypeOf(field.Type); tv != nil && isMutexType(tv) {
					report(Diagnostic{
						Pos:     prog.position(field.Pos()),
						Message: fmt.Sprintf("embedded %s in %s has no guard set; use a named field with //foam:guards", types.ExprString(field.Type), ts.Name.Name),
					})
				}
				continue
			}
			for _, name := range field.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil || !isMutexType(obj.Type()) {
					continue
				}
				if !prog.pragmas.guards[obj] {
					report(Diagnostic{
						Pos:     prog.position(name.Pos()),
						Message: fmt.Sprintf("mutex field %s.%s declares no guard set; add //foam:guards naming the fields it protects", ts.Name.Name, name.Name),
					})
				}
			}
		}
	}
}

// lockState maps the rendered receiver chain of a held mutex ("s.mu")
// to the mutex's object (field or variable).
type lockState map[string]types.Object

func cloneState(st lockState) lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// mergeStates reconciles two control-flow paths. Different lock sets on
// the joining paths mean the analysis cannot track the state; the
// caller poisons the function.
func mergeStates(a, b lockState) (lockState, bool) {
	if len(a) == len(b) {
		same := true
		for k := range a {
			if _, ok := b[k]; !ok {
				same = false
				break
			}
		}
		if same {
			return a, true
		}
	}
	union := cloneState(a)
	for k, v := range b {
		union[k] = v
	}
	return union, false
}

type lockChecker struct {
	prog      *Program
	pkg       *Package
	sc        *fnScope
	skipGuard bool // *Locked naming convention: the caller holds the lock
	poisoned  bool
	report    func(Diagnostic)
	lits      []*ast.FuncLit
}

func (c *lockChecker) emit(pos token.Pos, format string, args ...any) {
	if c.poisoned {
		return
	}
	c.report(Diagnostic{Pos: c.prog.position(pos), Message: fmt.Sprintf(format, args...)})
}

// heldName renders one held mutex deterministically for messages.
func heldName(st lockState) string {
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0]
}

func (c *lockChecker) walkBody(body *ast.BlockStmt) {
	st, _ := c.walkStmts(body.List, make(lockState))
	_ = st
	// Function literals run on their own goroutine or at an unknown
	// lock state; analyze each with a fresh empty state.
	for i := 0; i < len(c.lits); i++ {
		lit := c.lits[i]
		sub := &lockChecker{prog: c.prog, pkg: c.pkg, sc: c.sc, report: c.report}
		inner, _ := sub.walkStmts(lit.Body.List, make(lockState))
		_ = inner
		c.lits = append(c.lits, sub.lits...)
	}
}

// walkStmts threads the lock state through a statement list and reports
// whether the list always terminates the enclosing flow.
func (c *lockChecker) walkStmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		st, term = c.walkStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *lockChecker) walkStmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if chain, obj, lock, ok := c.lockEventOf(call); ok {
				if lock {
					st[chain] = obj
				} else {
					delete(st, chain)
				}
				return st, false
			}
			if isPanicCall(c.pkg, call) {
				c.inspectExpr(s.X, st)
				return st, true
			}
		}
		c.inspectExpr(s.X, st)
		return st, false
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held to the end of the
		// function; that is the state we already track. Other deferred
		// calls run at an unknown lock state — only collect literals.
		if _, _, _, ok := c.lockEventOf(s.Call); ok {
			return st, false
		}
		c.collectLits(s.Call)
		return st, false
	case *ast.SendStmt:
		if len(st) > 0 {
			c.emit(s.Pos(), "channel send on %s while holding %s; sends can block and a mutex must not be held across them", types.ExprString(s.Chan), heldName(st))
		}
		c.inspectExpr(s.Chan, st)
		c.inspectExpr(s.Value, st)
		return st, false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.inspectExpr(e, st)
		}
		for _, e := range s.Lhs {
			c.inspectExpr(e, st)
		}
		return st, false
	case *ast.IncDecStmt:
		c.inspectExpr(s.X, st)
		return st, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.inspectExpr(v, st)
					}
				}
			}
		}
		return st, false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.inspectExpr(e, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.GoStmt:
		c.collectLits(s.Call)
		return st, false
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		c.inspectExpr(s.Cond, st)
		thenOut, thenTerm := c.walkStmts(s.Body.List, cloneState(st))
		elseOut, elseTerm := st, false
		if s.Else != nil {
			elseOut, elseTerm = c.walkStmt(s.Else, cloneState(st))
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			merged, ok := mergeStates(thenOut, elseOut)
			if !ok {
				c.poisoned = true
			}
			return merged, false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.inspectExpr(s.Cond, st)
		}
		bodyOut, bodyTerm := c.walkStmts(s.Body.List, cloneState(st))
		if s.Post != nil {
			c.walkStmt(s.Post, bodyOut)
		}
		if !bodyTerm {
			if _, ok := mergeStates(st, bodyOut); !ok {
				c.poisoned = true
			}
		}
		if s.Cond == nil && bodyAlwaysReturns(s.Body) {
			// for {} whose only exits are returns inside the body.
			return st, true
		}
		return st, false
	case *ast.RangeStmt:
		c.inspectExpr(s.X, st)
		bodyOut, bodyTerm := c.walkStmts(s.Body.List, cloneState(st))
		if !bodyTerm {
			if _, ok := mergeStates(st, bodyOut); !ok {
				c.poisoned = true
			}
		}
		return st, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.inspectExpr(s.Tag, st)
		}
		return c.walkCases(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = c.walkStmt(s.Init, st)
		}
		return c.walkCases(s.Body, st)
	case *ast.SelectStmt:
		if len(st) > 0 {
			hasDefault := false
			for _, cc := range s.Body.List {
				if comm, ok := cc.(*ast.CommClause); ok && comm.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				c.emit(s.Pos(), "select with no default while holding %s; every case can block and a mutex must not be held across it", heldName(st))
			}
		}
		outs := []lockState{}
		for _, cc := range s.Body.List {
			comm, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			cOut, cTerm := c.walkStmts(comm.Body, cloneState(st))
			if !cTerm {
				outs = append(outs, cOut)
			}
		}
		return c.mergeAll(st, outs, len(outs) == 0 && len(s.Body.List) > 0)
	default:
		return st, false
	}
}

// walkCases handles switch bodies: each clause runs on a copy of the
// entry state; a switch with no default can also fall through with the
// entry state intact.
func (c *lockChecker) walkCases(body *ast.BlockStmt, st lockState) (lockState, bool) {
	outs := []lockState{}
	hasDefault := false
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		for _, e := range clause.List {
			c.inspectExpr(e, st)
		}
		cOut, cTerm := c.walkStmts(clause.Body, cloneState(st))
		if !cTerm {
			outs = append(outs, cOut)
		}
	}
	if !hasDefault {
		outs = append(outs, st)
	}
	return c.mergeAll(st, outs, len(outs) == 0)
}

func (c *lockChecker) mergeAll(entry lockState, outs []lockState, allTerm bool) (lockState, bool) {
	if allTerm {
		return entry, true
	}
	if len(outs) == 0 {
		return entry, false
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		var ok bool
		merged, ok = mergeStates(merged, o)
		if !ok {
			c.poisoned = true
		}
	}
	return merged, false
}

// bodyAlwaysReturns reports whether a bare for{} body's linear flow has
// no break (the worker-loop shape: exits only by return).
func bodyAlwaysReturns(body *ast.BlockStmt) bool {
	broken := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				broken = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // break inside these does not exit the outer for
		}
		return true
	})
	return !broken
}

// lockEventOf recognizes m.Lock()/Unlock()/RLock()/RUnlock() on a
// sync.Mutex or sync.RWMutex and returns the rendered receiver chain,
// the mutex object, and whether it acquires.
func (c *lockChecker) lockEventOf(call *ast.CallExpr) (chain string, obj types.Object, lock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return "", nil, false, false
	}
	recv := ast.Unparen(sel.X)
	t := c.pkg.Info.TypeOf(recv)
	if t == nil {
		return "", nil, false, false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if !isMutexType(t) {
		return "", nil, false, false
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if s, found := c.pkg.Info.Selections[r]; found {
			obj = s.Obj()
		}
	case *ast.Ident:
		obj = c.sc.obj(r)
	}
	if obj == nil {
		return "", nil, false, false
	}
	return types.ExprString(recv), obj, lock, true
}

// inspectExpr checks one expression tree for guarded-field accesses,
// blocking operations under a held mutex, and nested function literals.
func (c *lockChecker) inspectExpr(expr ast.Expr, st lockState) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			c.lits = append(c.lits, e)
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && len(st) > 0 {
				c.emit(e.Pos(), "channel receive from %s while holding %s; receives can block and a mutex must not be held across them", types.ExprString(e.X), heldName(st))
			}
		case *ast.CallExpr:
			c.checkBlockingCall(e, st)
		case *ast.SelectorExpr:
			c.checkGuardedAccess(e, st)
		}
		return true
	})
}

func (c *lockChecker) collectLits(expr ast.Expr) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.lits = append(c.lits, lit)
			return false
		}
		return true
	})
}

// checkBlockingCall flags calls that can block for unbounded time while
// a mutex is held. sync.Cond methods are exempt: Wait releases the
// mutex by contract, Signal/Broadcast never block.
func (c *lockChecker) checkBlockingCall(call *ast.CallExpr, st lockState) {
	if len(st) == 0 {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if s, found := c.pkg.Info.Selections[sel]; found {
		recv := s.Recv()
		if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
			recv = p.Elem()
		}
		named, isNamed := recv.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil {
			return
		}
		path := named.Obj().Pkg().Path()
		tname := named.Obj().Name()
		switch {
		case path == "sync" && tname == "WaitGroup" && name == "Wait":
			c.emit(call.Pos(), "sync.WaitGroup.Wait while holding %s; a mutex must not be held across blocking waits", heldName(st))
		case name == "Run" && strings.HasSuffix(path, "internal/pool"):
			c.emit(call.Pos(), "worker-pool handoff (%s.Run) while holding %s; phases block until every worker finishes", tname, heldName(st))
		}
		return
	}
	// Package-qualified call: time.Sleep.
	if f, isFn := c.pkg.Info.Uses[sel.Sel].(*types.Func); isFn && f.Pkg() != nil {
		if f.Pkg().Path() == "time" && f.Name() == "Sleep" {
			c.emit(call.Pos(), "time.Sleep while holding %s; a mutex must not be held across sleeps", heldName(st))
		}
	}
}

// checkGuardedAccess enforces the declared //foam:guards relation at one
// field access.
func (c *lockChecker) checkGuardedAccess(sel *ast.SelectorExpr, st lockState) {
	if c.skipGuard {
		return
	}
	s, ok := c.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	entries := c.prog.pragmas.guarded[s.Obj()]
	if len(entries) == 0 {
		return
	}
	if c.locallyCreated(sel.X, 0) {
		return // freshly constructed value that has not escaped yet
	}
	for _, g := range entries {
		if g.sameStruct {
			want := types.ExprString(ast.Unparen(sel.X)) + "." + g.mutex.Name()
			if st[want] == g.mutex {
				return
			}
		} else {
			for _, held := range st {
				if held == g.mutex {
					return
				}
			}
		}
	}
	c.emit(sel.Pos(), "access to %s requires holding %s (//foam:guards)", types.ExprString(sel), guardNames(entries))
}

func guardNames(entries []guardEntry) string {
	names := make([]string, len(entries))
	for i, g := range entries {
		names[i] = g.mutex.Name()
	}
	return strings.Join(names, " or ")
}

// locallyCreated reports whether the access base resolves to a local
// variable initialized from a composite literal or new() — a value
// under construction that no other goroutine can see yet.
func (c *lockChecker) locallyCreated(x ast.Expr, depth int) bool {
	if depth > dimDepth {
		return false
	}
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, ok := c.sc.obj(e).(*types.Var)
		if !ok {
			return false
		}
		rhs, rec := c.sc.single[v]
		if !rec || rhs == nil {
			return false
		}
		switch r := ast.Unparen(rhs).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if r.Op == token.AND {
				_, isLit := ast.Unparen(r.X).(*ast.CompositeLit)
				return isLit
			}
		case *ast.CallExpr:
			if id, isID := ast.Unparen(r.Fun).(*ast.Ident); isID {
				if b, isB := c.pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "new" {
					return true
				}
			}
		}
		return false
	case *ast.SelectorExpr:
		return c.locallyCreated(e.X, depth+1)
	case *ast.IndexExpr:
		return c.locallyCreated(e.X, depth+1)
	case *ast.StarExpr:
		return c.locallyCreated(e.X, depth+1)
	}
	return false
}

func isPanicCall(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
