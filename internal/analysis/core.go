package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// The analysis core: one index of the module's functions, built once by
// LoadModule, that the analyzers query instead of re-walking bodies.
// Each function carries the module functions it references (the call
// graph); cone walks it.

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
				}
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
	}
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
