package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //foam: pragma vocabulary. Directives use the compiler-pragma
// convention: no space between // and foam:, attached as doc comments.
//
//	//foam:hotpath                — on a func declaration
//	//foam:hotphases              — on a func declaration (phase binder)
//	//foam:coldpath               — on a func declaration
//	//foam:deterministic          — in a package doc comment
//	//foam:units <name>=<unit-expr> [<name>=<unit-expr>...] — on a struct
//	      field, a var/const spec, or a func declaration: declares the
//	      physical dimension of the named field(s), value(s), parameter(s)
//	      or result(s); "return" names a function's single result. Unit
//	      expressions follow the grammar in unit.go (kg, m, s, K, psu,
//	      W, J, N, Pa, degC, rad, 1; "*", "/", "^int"); slice/array/
//	      pointer targets declare the unit of their numeric elements
//	//foam:allow <analyzer> <reason...> — anywhere; suppresses the named
//	      analyzer on the comment's line and the line directly below it
//
// Anything else that looks like a foam directive — an unknown verb,
// trailing junk, a misplaced attachment, a missing reason — is reported
// as a diagnostic from the "pragma" pseudo-analyzer rather than being
// silently ignored: a pragma that does not parse is an invariant that is
// not enforced.

const pragmaAnalyzer = "pragma"

// allowRange is one //foam:allow suppression: analyzer name plus the
// (file, line) it was written on. It covers that line and the next, so it
// works both as a trailing comment on the offending statement and as a
// comment on its own line directly above it.
type allowRange struct {
	file     string
	line     int
	analyzer string
}

type pragmaInfo struct {
	hot    map[*types.Func]bool
	phases map[*types.Func]bool
	cold   map[*types.Func]bool
	// units maps //foam:units-annotated objects (struct fields, vars,
	// consts, params, named results) to their declared dimension;
	// returnUnit covers "return=" declarations on functions with one
	// unnamed result.
	units      map[types.Object]Unit
	returnUnit map[*types.Func]Unit
	allow      []allowRange
	diags      []Diagnostic
}

func (pi *pragmaInfo) suppressed(d Diagnostic) bool {
	for _, a := range pi.allow {
		if a.analyzer == d.Analyzer && a.file == d.Pos.Filename &&
			(d.Pos.Line == a.line || d.Pos.Line == a.line+1) {
			return true
		}
	}
	return false
}

// collectPragmas scans every comment of every loaded file, binds the
// well-formed directives to their functions and packages, and turns every
// malformed or misplaced one into a diagnostic.
func collectPragmas(prog *Program) *pragmaInfo {
	pi := &pragmaInfo{
		hot:        make(map[*types.Func]bool),
		phases:     make(map[*types.Func]bool),
		cold:       make(map[*types.Func]bool),
		units:      make(map[types.Object]Unit),
		returnUnit: make(map[*types.Func]Unit),
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			pi.collectFile(prog, pkg, file)
		}
	}
	return pi
}

// pragmaSite is a place a directive comment can be attached.
type pragmaSite uint8

const (
	sitePackage pragmaSite = 1 << iota // package doc comment
	siteFunc                           // func declaration doc comment
	siteField                          // struct field doc or line comment
	siteValue                          // var/const spec (or block) doc or line comment
	siteAny     = sitePackage | siteFunc | siteField | siteValue
)

// siteNoun names the strict sites — package and function docs, where
// every directive is taken and a wrong one is reported against the site.
var siteNoun = map[pragmaSite]string{sitePackage: "the package doc", siteFunc: "a function"}

// pragmaVerb is one directive of the vocabulary: where it may be
// attached, whether it takes arguments, and the phrases completing its
// misplacement messages — must after "//foam:<verb> must" (with the site
// noun for %s), free after "misplaced //foam:<verb>: it must".
type pragmaVerb struct {
	sites  pragmaSite
	noArgs bool
	must   string
	free   string
}

var pragmaVerbs = map[string]pragmaVerb{
	"allow": {sites: siteAny},
	"deterministic": {sitePackage, true,
		"be in the package doc comment, not on %s", "be in the package doc comment"},
	"hotpath": {siteFunc, true,
		"be attached to a function declaration, not %s", "be the doc comment of a function declaration"},
	"hotphases": {siteFunc, true,
		"be attached to a function declaration, not %s", "be the doc comment of a function declaration"},
	"coldpath": {siteFunc, true,
		"be attached to a function declaration, not %s", "be the doc comment of a function declaration"},
	"units": {siteField | siteValue | siteFunc, false,
		"be attached to a struct field, var/const spec, or func declaration, not %s",
		"be attached to a struct field, var/const spec, or func declaration"},
}

func (pi *pragmaInfo) collectFile(prog *Program, pkg *Package, file *ast.File) {
	report := func(pos token.Pos, format string, args ...any) {
		pi.diags = append(pi.diags, Diagnostic{
			Pos:      prog.position(pos),
			Analyzer: pragmaAnalyzer,
			Message:  fmt.Sprintf(format, args...),
		})
	}

	// consumed marks directive comments taken at an attachment site; any
	// directive left over at the end is misplaced.
	consumed := make(map[*ast.Comment]bool)

	// attach hands the directives of one site's comment groups to bind. A
	// strict site takes every directive and reports the ones that do not
	// belong there; any other site takes only the verbs it accepts and
	// leaves the rest to the misplaced pass below.
	attach := func(site pragmaSite, bind func(c *ast.Comment, verb, args string), groups ...*ast.CommentGroup) {
		for _, cg := range groups {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				verb, args, ok := splitDirective(c.Text)
				if !ok {
					continue
				}
				v, known := pragmaVerbs[verb]
				accepted := known && v.sites&site != 0
				if !accepted && siteNoun[site] == "" {
					continue
				}
				consumed[c] = true
				switch {
				case verb == "allow":
					pi.parseAllow(prog, c, report)
				case !known:
					report(c.Pos(), "unknown foam directive //foam:%s", verb)
				case !accepted:
					report(c.Pos(), "//foam:%s must "+v.must, verb, siteNoun[site])
				case v.noArgs && args != "":
					report(c.Pos(), "//foam:%s takes no arguments (got %q)", verb, args)
				default:
					bind(c, verb, args)
				}
			}
		}
	}

	attach(sitePackage, func(*ast.Comment, string, string) { pkg.Deterministic = true }, file.Doc)

	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
			attach(siteFunc, func(c *ast.Comment, verb, args string) {
				if verb == "units" {
					pi.parseFuncUnits(pkg, d, c, args, report)
					return
				}
				if obj == nil {
					report(c.Pos(), "//foam:%s on an undeclared function", verb)
					return
				}
				switch verb {
				case "hotpath":
					pi.hot[obj] = true
				case "hotphases":
					pi.phases[obj] = true
				case "coldpath":
					pi.cold[obj] = true
				}
				n := 0
				for _, on := range []bool{pi.hot[obj], pi.phases[obj], pi.cold[obj]} {
					if on {
						n++
					}
				}
				if n > 1 {
					report(c.Pos(), "%s carries conflicting foam annotations (hotpath/hotphases/coldpath are mutually exclusive)", d.Name.Name)
				}
			}, d.Doc)
		case *ast.GenDecl:
			var single *ast.CommentGroup
			if len(d.Specs) == 1 {
				single = d.Doc
			} else if len(d.Specs) > 1 && (d.Tok == token.VAR || d.Tok == token.CONST) {
				// A directive on a multi-spec block's doc comment resolves
				// its names across every spec (how constant tables are
				// annotated).
				attach(siteValue, func(c *ast.Comment, _, args string) {
					pi.parseDeclUnits(pkg, d, c, args, report)
				}, d.Doc)
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						attach(siteField, func(c *ast.Comment, _, args string) {
							pi.parseFieldUnits(pkg, field, c, args, report)
						}, field.Doc, field.Comment)
					}
				case *ast.ValueSpec:
					attach(siteValue, func(c *ast.Comment, _, args string) {
						pi.parseValueUnits(pkg, s, c, args, report)
					}, s.Doc, s.Comment, single)
				}
			}
		}
	}

	// Everything else: free-floating comments, trailing comments, comments
	// inside function bodies. Only //foam:allow is meaningful there.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if consumed[c] {
				continue
			}
			if spaced, ok := strings.CutPrefix(c.Text, "// "); ok && strings.HasPrefix(spaced, "foam:") {
				// Normalizing the spacing is mechanical: drop the space so
				// the directive parses on the next run.
				start := prog.position(c.Pos())
				pi.diags = append(pi.diags, Diagnostic{
					Pos:      start,
					Analyzer: pragmaAnalyzer,
					Message:  fmt.Sprintf("malformed foam directive: no space allowed between // and foam: (write //%s)", strings.TrimSpace(spaced)),
					Fix: &Fix{
						Start:   start.Offset,
						End:     start.Offset + len(c.Text),
						NewText: "//" + spaced,
					},
				})
				continue
			}
			verb, _, ok := splitDirective(c.Text)
			if !ok {
				continue
			}
			switch v, known := pragmaVerbs[verb]; {
			case verb == "allow":
				pi.parseAllow(prog, c, report)
			case !known:
				report(c.Pos(), "unknown foam directive //foam:%s", verb)
			default:
				report(c.Pos(), "misplaced //foam:%s: it must %s", verb, v.free)
			}
		}
	}
}

// parseAllow parses "//foam:allow <analyzer> <reason...>" and records the
// suppression. The analyzer must be one of Analyzers() — the pragma
// pseudo-analyzer is not: directive errors cannot be suppressed — and the
// reason is mandatory: an unexplained suppression is indistinguishable
// from a silenced bug.
func (pi *pragmaInfo) parseAllow(prog *Program, c *ast.Comment, report func(token.Pos, string, ...any)) {
	_, args, _ := splitDirective(c.Text)
	name, reason, _ := strings.Cut(args, " ")
	if name == "" {
		report(c.Pos(), "//foam:allow needs an analyzer name and a reason: //foam:allow <analyzer> <reason>")
		return
	}
	known := false
	for _, a := range Analyzers() {
		known = known || a.Name == name
	}
	if !known {
		report(c.Pos(), "//foam:allow names unknown analyzer %q", name)
		return
	}
	if strings.TrimSpace(reason) == "" {
		report(c.Pos(), "//foam:allow %s is missing its reason", name)
		return
	}
	pos := prog.position(c.Pos())
	pi.allow = append(pi.allow, allowRange{file: pos.Filename, line: pos.Line, analyzer: name})
}

// parseUnitPairs parses the "<name>=<unit-expr> [<name>=<unit-expr>...]"
// argument list shared by every //foam:units attachment and hands each
// well-formed pair to bind; malformed pairs become diagnostics.
func parseUnitPairs(c *ast.Comment, args string, report func(token.Pos, string, ...any), bind func(name string, u Unit)) {
	pairs := strings.Fields(args)
	if len(pairs) == 0 {
		report(c.Pos(), "//foam:units needs at least one <name>=<unit-expr> pair")
		return
	}
	for _, pair := range pairs {
		name, expr, ok := strings.Cut(pair, "=")
		if !ok || name == "" || expr == "" {
			report(c.Pos(), "//foam:units argument %q is not of the form <name>=<unit-expr>", pair)
			continue
		}
		u, err := ParseUnit(expr)
		if err != nil {
			report(c.Pos(), "//foam:units %s: bad unit expression: %v", name, err)
			continue
		}
		bind(name, u)
	}
}

// unitTargetOK reports whether a //foam:units annotation makes sense on
// an object of type t: a numeric value, or slices/arrays/pointers
// unwrapping to one (the annotation then declares the element unit).
func unitTargetOK(t types.Type) bool {
	for i := 0; i < maxDepth && t != nil; i++ {
		switch ut := t.Underlying().(type) {
		case *types.Basic:
			return ut.Info()&(types.IsNumeric) != 0
		case *types.Slice:
			t = ut.Elem()
		case *types.Array:
			t = ut.Elem()
		case *types.Pointer:
			t = ut.Elem()
		default:
			return false
		}
	}
	return false
}

// bindUnit records obj's declared unit, rejecting conflicting duplicate
// declarations and non-numeric targets.
func (pi *pragmaInfo) bindUnit(obj types.Object, u Unit, c *ast.Comment, report func(token.Pos, string, ...any)) {
	if obj == nil {
		report(c.Pos(), "//foam:units on an undeclared name")
		return
	}
	if !unitTargetOK(obj.Type()) {
		report(c.Pos(), "//foam:units on %s: type %s has no numeric elements to carry a unit", obj.Name(), obj.Type())
		return
	}
	if prev, ok := pi.units[obj]; ok && !prev.Equal(u) {
		report(c.Pos(), "//foam:units on %s conflicts with an earlier declaration (%s vs %s)", obj.Name(), prev.Canonical(), u.Canonical())
		return
	}
	pi.units[obj] = u
}

// parseFieldUnits parses //foam:units attached to a struct field list:
// each name must be one of the names this field declares.
func (pi *pragmaInfo) parseFieldUnits(pkg *Package, field *ast.Field, c *ast.Comment, args string, report func(token.Pos, string, ...any)) {
	parseUnitPairs(c, args, report, func(name string, u Unit) {
		for _, id := range field.Names {
			if id.Name == name {
				pi.bindUnit(pkg.Info.Defs[id], u, c, report)
				return
			}
		}
		report(c.Pos(), "//foam:units names %q, which this field declaration does not declare", name)
	})
}

// parseDeclUnits parses //foam:units attached to a multi-spec var/const
// block: each name may resolve in any spec of the block.
func (pi *pragmaInfo) parseDeclUnits(pkg *Package, gd *ast.GenDecl, c *ast.Comment, args string, report func(token.Pos, string, ...any)) {
	parseUnitPairs(c, args, report, func(name string, u Unit) {
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, id := range vs.Names {
				if id.Name == name {
					pi.bindUnit(pkg.Info.Defs[id], u, c, report)
					return
				}
			}
		}
		report(c.Pos(), "//foam:units names %q, which this declaration does not declare", name)
	})
}

// parseValueUnits parses //foam:units attached to a var/const spec.
func (pi *pragmaInfo) parseValueUnits(pkg *Package, vs *ast.ValueSpec, c *ast.Comment, args string, report func(token.Pos, string, ...any)) {
	parseUnitPairs(c, args, report, func(name string, u Unit) {
		for _, id := range vs.Names {
			if id.Name == name {
				pi.bindUnit(pkg.Info.Defs[id], u, c, report)
				return
			}
		}
		report(c.Pos(), "//foam:units names %q, which this declaration does not declare", name)
	})
}

// parseFuncUnits parses //foam:units attached to a func declaration:
// names resolve to parameters or named results, and "return" declares
// the unit of the function's single (possibly unnamed) result.
func (pi *pragmaInfo) parseFuncUnits(pkg *Package, fd *ast.FuncDecl, c *ast.Comment, args string, report func(token.Pos, string, ...any)) {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		report(c.Pos(), "//foam:units on an undeclared function")
		return
	}
	sig := fn.Type().(*types.Signature)
	parseUnitPairs(c, args, report, func(name string, u Unit) {
		if name == "return" {
			if sig.Results().Len() != 1 {
				report(c.Pos(), "//foam:units return= needs exactly one result (%s has %d)", fd.Name.Name, sig.Results().Len())
				return
			}
			if !unitTargetOK(sig.Results().At(0).Type()) {
				report(c.Pos(), "//foam:units return= on %s: result type %s has no numeric elements to carry a unit", fd.Name.Name, sig.Results().At(0).Type())
				return
			}
			if prev, ok := pi.returnUnit[fn]; ok && !prev.Equal(u) {
				report(c.Pos(), "//foam:units return= on %s conflicts with an earlier declaration (%s vs %s)", fd.Name.Name, prev.Canonical(), u.Canonical())
				return
			}
			pi.returnUnit[fn] = u
			return
		}
		if sig.Recv() != nil && sig.Recv().Name() == name {
			pi.bindUnit(sig.Recv(), u, c, report)
			return
		}
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				if v := tuple.At(i); v.Name() == name {
					pi.bindUnit(v, u, c, report)
					return
				}
			}
		}
		report(c.Pos(), "//foam:units names %q, which is not a parameter or result of %s", name, fd.Name.Name)
	})
}

// splitDirective returns (verb, args, true) for a comment of the form
// //foam:verb [args...]; ok is false for ordinary comments.
func splitDirective(text string) (verb, args string, ok bool) {
	rest, found := strings.CutPrefix(text, "//foam:")
	if !found {
		return "", "", false
	}
	verb, args, _ = strings.Cut(rest, " ")
	return verb, strings.TrimSpace(args), true
}
