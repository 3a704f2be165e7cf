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
	allow  []allowRange
	diags  []Diagnostic
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
		hot:    make(map[*types.Func]bool),
		phases: make(map[*types.Func]bool),
		cold:   make(map[*types.Func]bool),
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
	sitePackage pragmaSite = iota + 1 // package doc comment
	siteFunc                          // func declaration doc comment
)

// siteNoun names the sites. Each takes every directive in its doc comment
// and reports the ones that do not belong there against the site.
var siteNoun = map[pragmaSite]string{sitePackage: "the package doc", siteFunc: "a function"}

// pragmaVerb is one directive of the vocabulary: the site it must be
// attached to, and the phrases completing its misplacement messages —
// must after "//foam:<verb> must" (with the site noun for %s), free after
// "misplaced //foam:<verb>: it must". Only allow takes arguments, and it
// may sit anywhere.
type pragmaVerb struct {
	site pragmaSite
	must string
	free string
}

var pragmaVerbs = map[string]pragmaVerb{
	"allow": {},
	"deterministic": {sitePackage,
		"be in the package doc comment, not on %s", "be in the package doc comment"},
	"hotpath": {siteFunc,
		"be attached to a function declaration, not %s", "be the doc comment of a function declaration"},
	"hotphases": {siteFunc,
		"be attached to a function declaration, not %s", "be the doc comment of a function declaration"},
	"coldpath": {siteFunc,
		"be attached to a function declaration, not %s", "be the doc comment of a function declaration"},
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

	// attach hands the directives of one site's doc comment to bind,
	// reporting the ones that do not belong there.
	attach := func(site pragmaSite, bind func(c *ast.Comment, verb string), cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			verb, args, ok := splitDirective(c.Text)
			if !ok {
				continue
			}
			consumed[c] = true
			switch v, known := pragmaVerbs[verb]; {
			case verb == "allow":
				pi.parseAllow(prog, c, report)
			case !known:
				report(c.Pos(), "unknown foam directive //foam:%s", verb)
			case v.site != site:
				report(c.Pos(), "//foam:%s must "+v.must, verb, siteNoun[site])
			case args != "":
				report(c.Pos(), "//foam:%s takes no arguments (got %q)", verb, args)
			default:
				bind(c, verb)
			}
		}
	}

	attach(sitePackage, func(*ast.Comment, string) { pkg.Deterministic = true }, file.Doc)

	for _, decl := range file.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
		attach(siteFunc, func(c *ast.Comment, verb string) {
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
	}

	// Everything else: comments on types, fields and values, trailing
	// comments, comments inside function bodies. Only //foam:allow is
	// meaningful there.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if consumed[c] {
				continue
			}
			if spaced, ok := strings.CutPrefix(c.Text, "// "); ok && strings.HasPrefix(spaced, "foam:") {
				report(c.Pos(), "malformed foam directive: no space allowed between // and foam: (write //%s)", strings.TrimSpace(spaced))
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
