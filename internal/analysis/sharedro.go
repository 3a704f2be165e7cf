package analysis

import (
	"go/types"
)

// AnalyzerSharedRO proves the shared-table immutability contract behind
// the ensemble tier: a struct type marked //foam:sharedro (core.Tables
// and everything it hands out — spectral.Transform via Share, the
// grids, the coupler overlap, the river network) is adopted read-only,
// so hundreds of concurrent members may traverse the same Legendre rows
// and bathymetry without synchronization. A single post-adoption write
// is a cross-member data race that the race detector only catches if
// two members happen to collide on the same cache line during a test
// run; this analyzer makes it a lint error instead.
//
// The rule is a query over the core's resolved writes: any assignment,
// IncDec, copy, or clear whose destination chain passes through a
// selector on a *T (T marked) is a write to shared storage — including
// element writes like tb.KMT[i] = v, writes through a slice of it, and
// deep chains like tb.Spectral reached through other structs, following
// single-assignment locals. Writes through a VALUE of type T are exempt
// (they mutate a copy — that is how Transform.Share works) unless the
// chain keeps indexing into the copied slice headers, which still
// aliases the shared backing arrays. Exempted entirely is each type's
// construction cone: the module functions whose results include T or *T
// (the builders) plus everything they statically call, where mutation
// is the point.
var AnalyzerSharedRO = &Analyzer{
	Name: "sharedro",
	Doc:  "reports writes to storage reachable from //foam:sharedro table types outside their construction cone",
	Run:  runSharedRO,
}

func runSharedRO(prog *Program, report func(Diagnostic)) {
	marked := prog.pragmas.sharedro
	if len(marked) == 0 {
		return
	}
	cones := constructionCones(prog, marked)
	for _, n := range prog.funcList {
		for _, w := range n.writes {
			if w.param != nil {
				continue
			}
			tn := sharedRoot(marked, w.links)
			if tn == nil {
				continue
			}
			if _, inCone := cones[tn][n]; inCone {
				continue
			}
			what := "write to " + types.ExprString(w.dst)
			if w.builtin != "" {
				what = w.builtin + " into " + types.ExprString(w.dst)
			}
			report(Diagnostic{
				Pos: prog.position(w.pos),
				Message: what + " mutates storage reachable from //foam:sharedro type " +
					tn.Pkg().Name() + "." + tn.Name() + " outside its construction cone; shared tables are read-only after adoption",
			})
		}
	}
}

// sharedRoot returns the outermost marked type a chain writes through:
// a field selected through a pointer to it, or through a value of it
// when the store reaches elements behind the copied slice headers.
func sharedRoot(marked map[*types.TypeName]bool, links []link) *types.TypeName {
	for _, l := range links {
		if l.base == nil {
			continue
		}
		_, isPtr := l.base.Underlying().(*types.Pointer)
		if tn := namedOf(l.base); tn != nil && marked[tn] && (isPtr || l.elem) {
			return tn
		}
	}
	return nil
}
