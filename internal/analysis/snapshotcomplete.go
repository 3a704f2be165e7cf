package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// AnalyzerSnapshotComplete turns the fork/resume determinism of the
// serving tier from a tested property into a proven one. foam-serve's
// snapshot/fork/resume (PR 6) and the checkpoint round-trip both rest
// on the sched Snapshotter contract: Snapshot() must capture every
// mutable field reachable from the component and RestoreSnapshot must
// put every one of them back. A new prognostic or accumulator field
// that silently skips the checkpoint produces forks that drift from
// their parent only after the next coupling interval — plausible
// output, wrong physics, and a test only catches it if it happens to
// advance past the divergence point.
//
// For every module type with the Snapshotter shape (Snapshot() any /
// RestoreSnapshot(any) error), the analyzer computes the reachable
// mutable-field set — walking struct fields through pointers, slices,
// and nested module structs, pruning //foam:sharedro table cones,
// //foam:transient fields, and interface/func/chan values — and calls a
// leaf mutable when some module function writes it (directly, through
// a reference-typed local, or by passing it to a helper whose parameter
// is written — a fixpoint over call edges) outside the construction
// cones of both the write's root type and the field's owner type. Each
// mutable leaf must then be mentioned inside the Snapshot method's call
// cone and written inside the RestoreSnapshot cone (itself, or a
// containing field). //foam:transient <field> <reason> is the audited
// escape hatch for per-step scratch, caches, and diagnostics.
var AnalyzerSnapshotComplete = &Analyzer{
	Name: "snapshotcomplete",
	Doc:  "proves every mutable field reachable from a sched Snapshotter is captured by Snapshot and restored by RestoreSnapshot",
	Run:  runSnapshotComplete,
}

// snapshotter is one detected Snapshotter implementation.
type snapshotter struct {
	tn   *types.TypeName
	snap *funcNode
	rest *funcNode
}

// fieldWrite is one non-local write: the function it happens in and the
// named type the destination chain is rooted at (nil when the root is
// not a named type).
type fieldWrite struct {
	node *funcNode
	root *types.TypeName
}

// argWrite is an argument bound to a parameter, kept for the
// written-parameter fixpoint.
type argWrite struct {
	node *funcNode
	w    *write
}

type snapAnalysis struct {
	prog       *Program
	fieldOwner map[types.Object]*types.TypeName
	// writes: outermost written field -> sites. chainWriters: every
	// field appearing anywhere in a write-destination chain -> functions
	// doing it (restore coverage). mentions: field -> functions whose
	// bodies reference it at all (snapshot coverage).
	writes       map[types.Object][]fieldWrite
	chainWriters map[types.Object]map[*funcNode]bool
	mentions     map[types.Object]map[*funcNode]bool
	paramWritten map[*types.Var]bool
	args         []argWrite
	cones        map[*types.TypeName]map[*funcNode]int
}

func runSnapshotComplete(prog *Program, report func(Diagnostic)) {
	snaps := findSnapshotters(prog)
	if len(snaps) == 0 {
		return
	}
	sa := &snapAnalysis{
		prog:         prog,
		fieldOwner:   make(map[types.Object]*types.TypeName),
		writes:       make(map[types.Object][]fieldWrite),
		chainWriters: make(map[types.Object]map[*funcNode]bool),
		mentions:     make(map[types.Object]map[*funcNode]bool),
		paramWritten: make(map[*types.Var]bool),
	}
	sa.indexFieldOwners()
	sa.scanBodies()
	sa.fixpointParamWrites()
	for _, a := range sa.args {
		if len(a.w.links) > 0 && sa.paramWritten[a.w.param] {
			// Passing m.exch to a helper that fills it mutates exch.
			sa.recordFieldWrite(a.node, a.w)
		}
	}
	sa.buildCones(snaps)

	for _, s := range snaps {
		sa.checkSnapshotter(s, report)
	}
}

// findSnapshotters locates every module named struct type carrying both
// halves of the sched Snapshotter shape. Detection is structural — the
// signatures, not the interface — so fixtures and future components
// outside internal/sched are covered identically.
func findSnapshotters(prog *Program) []*snapshotter {
	byType := make(map[*types.TypeName]*snapshotter)
	for _, node := range prog.funcList {
		sig := node.fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		tn := namedOf(sig.Recv().Type())
		if tn == nil {
			continue
		}
		switch node.fn.Name() {
		case "Snapshot":
			if sig.Params().Len() == 0 && sig.Results().Len() == 1 && isEmptyInterface(sig.Results().At(0).Type()) {
				ent(byType, tn).snap = node
			}
		case "RestoreSnapshot":
			if sig.Params().Len() == 1 && isEmptyInterface(sig.Params().At(0).Type()) &&
				sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) {
				ent(byType, tn).rest = node
			}
		}
	}
	var out []*snapshotter
	for tn, s := range byType {
		if s.snap != nil && s.rest != nil {
			if _, isStruct := tn.Type().Underlying().(*types.Struct); isStruct {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].tn.Pkg().Path()+"."+out[i].tn.Name() < out[j].tn.Pkg().Path()+"."+out[j].tn.Name()
	})
	return out
}

func ent(m map[*types.TypeName]*snapshotter, tn *types.TypeName) *snapshotter {
	s := m[tn]
	if s == nil {
		s = &snapshotter{tn: tn}
		m[tn] = s
	}
	return s
}

func isEmptyInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.Empty()
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// indexFieldOwners maps every field of every named module struct to the
// type declaring it, for the owner-cone exemption.
func (sa *snapAnalysis) indexFieldOwners() {
	for _, pkg := range sa.prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				sa.fieldOwner[st.Field(i)] = tn
			}
		}
	}
}

// scanBodies sorts every function's resolved writes into field writes,
// directly written parameters and argument bindings, and records the
// fields each body mentions.
func (sa *snapAnalysis) scanBodies() {
	for _, node := range sa.prog.funcList {
		params := paramSetOf(node)
		for i := range node.writes {
			w := &node.writes[i]
			switch {
			case w.param != nil:
				if len(w.links) > 0 || w.root != nil {
					sa.args = append(sa.args, argWrite{node, w})
				}
			case len(w.links) > 0:
				sa.recordFieldWrite(node, w)
			default:
				if v, ok := w.root.(*types.Var); ok && params[v] && w.stepped {
					sa.paramWritten[v] = true
				}
			}
		}
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := node.pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
					markSet(sa.mentions, types.Object(v), node)
				}
			}
			return true
		})
	}
}

// recordFieldWrite files a write under the chain's outermost field and
// every field along it.
func (sa *snapAnalysis) recordFieldWrite(node *funcNode, w *write) {
	f0 := w.links[0].field
	sa.writes[f0] = append(sa.writes[f0], fieldWrite{node: node, root: w.rootTN})
	for _, l := range w.links {
		markSet(sa.chainWriters, l.field, node)
	}
}

// fixpointParamWrites propagates written-ness backwards through bare
// parameter pass-throughs: if g passes its parameter p straight to a
// parameter of h that h writes, p is written too.
func (sa *snapAnalysis) fixpointParamWrites() {
	paramSets := make(map[*funcNode]map[*types.Var]bool)
	for changed := true; changed; {
		changed = false
		for _, a := range sa.args {
			if len(a.w.links) != 0 || !sa.paramWritten[a.w.param] {
				continue
			}
			v, ok := a.w.root.(*types.Var)
			if !ok || sa.paramWritten[v] {
				continue
			}
			ps := paramSets[a.node]
			if ps == nil {
				ps = paramSetOf(a.node)
				paramSets[a.node] = ps
			}
			if ps[v] {
				sa.paramWritten[v] = true
				changed = true
			}
		}
	}
}

// buildCones builds the construction cones for every named type that
// roots or owns a recorded write, plus the snapshotter types.
func (sa *snapAnalysis) buildCones(snaps []*snapshotter) {
	need := make(map[*types.TypeName]bool)
	for f, sites := range sa.writes {
		for _, w := range sites {
			if w.root != nil {
				need[w.root] = true
			}
		}
		if tn := sa.fieldOwner[f]; tn != nil {
			need[tn] = true
		}
	}
	for _, s := range snaps {
		need[s.tn] = true
	}
	sa.cones = constructionCones(sa.prog, need)
}

// mutatedOutsideCones reports whether field f has a write that is
// construction-time for neither the destination chain's root type nor
// f's owner type.
func (sa *snapAnalysis) mutatedOutsideCones(f types.Object) bool {
	owner := sa.fieldOwner[f]
	for _, w := range sa.writes[f] {
		if _, ok := sa.cones[w.root][w.node]; ok && w.root != nil {
			continue
		}
		if _, ok := sa.cones[owner][w.node]; ok && owner != nil {
			continue
		}
		return true
	}
	return false
}

// checkSnapshotter proves (or refutes) the coverage obligation for one
// Snapshotter type.
func (sa *snapAnalysis) checkSnapshotter(s *snapshotter, report func(Diagnostic)) {
	snapCone := cone([]*funcNode{s.snap}, nil)
	restCone := cone([]*funcNode{s.rest}, nil)
	recvName := "(*" + s.tn.Pkg().Name() + "." + s.tn.Name() + ")"

	seen := make(map[string]bool)
	sa.walkLeaves(s.tn, nil, map[*types.TypeName]bool{s.tn: true}, func(path []types.Object, leaf types.Object) {
		pathNames := make([]string, 0, len(path)+1)
		for _, f := range path {
			pathNames = append(pathNames, f.Name())
		}
		pathNames = append(pathNames, leaf.Name())
		key := strings.Join(pathNames, ".")
		if seen[key] {
			return
		}
		seen[key] = true

		// Mutable? Any field along the path written outside construction
		// counts: a whole-struct store dirties every leaf under it.
		dirty := sa.mutatedOutsideCones(leaf)
		for _, f := range path {
			if dirty {
				break
			}
			dirty = sa.mutatedOutsideCones(f)
		}
		if !dirty {
			return // construction-time-only, or never written at all
		}

		snapCovered := false
		restCovered := false
		for _, f := range append(append([]types.Object{}, path...), leaf) {
			if !snapCovered {
				for n := range sa.mentions[f] {
					if _, ok := snapCone[n]; ok {
						snapCovered = true
						break
					}
				}
			}
			if !restCovered {
				for n := range sa.chainWriters[f] {
					if _, ok := restCone[n]; ok {
						restCovered = true
						break
					}
				}
			}
		}
		if !snapCovered {
			report(Diagnostic{
				Pos: sa.prog.position(s.snap.decl.Name.Pos()),
				Message: fmt.Sprintf("%s.Snapshot does not capture mutable field %s; write it into the snapshot or mark it //foam:transient with a reason",
					recvName, key),
			})
		}
		if !restCovered {
			report(Diagnostic{
				Pos: sa.prog.position(s.rest.decl.Name.Pos()),
				Message: fmt.Sprintf("%s.RestoreSnapshot does not restore mutable field %s; restore it from the snapshot or mark it //foam:transient with a reason",
					recvName, key),
			})
		}
	})
}

// walkLeaves enumerates the reachable mutable-candidate leaves of tn's
// struct, pruning //foam:transient fields, //foam:sharedro table types,
// and values that carry behavior rather than state (interfaces, funcs,
// channels). Nested module structs are walked recursively; visited
// guards type cycles.
func (sa *snapAnalysis) walkLeaves(tn *types.TypeName, path []types.Object, visited map[*types.TypeName]bool, visit func(path []types.Object, leaf types.Object)) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok || len(path) > maxDepth {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if _, isTransient := sa.prog.pragmas.transient[f]; isTransient {
			continue
		}
		t := f.Type()
		// Unwrap pointers and element layers to the carried value type.
		for depth := 0; depth < maxDepth; depth++ {
			switch u := t.Underlying().(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			}
			break
		}
		switch t.Underlying().(type) {
		case *types.Interface, *types.Signature, *types.Chan:
			continue
		case *types.Struct:
			inner := namedOf(t)
			if inner == nil {
				continue // anonymous struct fields carry no named contract
			}
			if sa.prog.pragmas.sharedro[inner] {
				continue // immutable by the sharedro proof
			}
			if !sa.moduleLocal(inner) {
				continue // sync.Mutex and friends: not model state
			}
			if visited[inner] {
				continue
			}
			visited[inner] = true
			sa.walkLeaves(inner, append(path, f), visited, visit)
			visited[inner] = false
		default:
			// Basic values, maps, named scalars: a state-carrying leaf.
			visit(path, f)
		}
	}
}

// moduleLocal reports whether tn is declared inside the analyzed module.
func (sa *snapAnalysis) moduleLocal(tn *types.TypeName) bool {
	pkg := tn.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == sa.prog.ModulePath || strings.HasPrefix(path, sa.prog.ModulePath+"/")
}

// paramSetOf returns the parameter and receiver variables of a function
// node.
func paramSetOf(node *funcNode) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	sig, ok := node.fn.Type().(*types.Signature)
	if !ok {
		return out
	}
	if r := sig.Recv(); r != nil {
		out[r] = true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out[sig.Params().At(i)] = true
	}
	return out
}

// markSet records node in the per-object function set.
func markSet(m map[types.Object]map[*funcNode]bool, f types.Object, node *funcNode) {
	s := m[f]
	if s == nil {
		s = make(map[*funcNode]bool)
		m[f] = s
	}
	s[node] = true
}
