// Package analysis is FOAM-Go's project-specific static-analysis suite:
// the implementation behind cmd/foam-lint. It is written entirely against
// the standard library (go/ast, go/parser, go/types, go/build) so the
// module keeps its zero-dependency property.
//
// The suite converts the project's two hardest-won invariants — bit-exact
// determinism for any worker count (PR 1) and a zero-allocation
// steady-state coupled step (PR 2) — from test-observed behavior into
// compile-time law. Code states its obligations with a small pragma
// vocabulary (see pragma.go):
//
//	//foam:hotpath        function: it and its static callees in this
//	                      module must not contain allocating constructs
//	//foam:hotphases      function: construction-time phase binder; may
//	                      allocate itself, but every function literal it
//	                      binds is checked as a hot root
//	//foam:deterministic  package: no map iteration, wall-clock reads,
//	                      math/rand, or multi-case selects
//	//foam:coldpath       function: audited constructor / lazy-init /
//	                      error path; hotpathalloc does not descend
//	//foam:allow <name> <reason>
//	                      suppress one analyzer on this line and the next
//
// and two analyzers enforce them, each a query over the analysis core
// LoadModule computes once (core.go):
//
//	hotpathalloc    allocating constructs reachable from a hotpath root
//	nondeterminism  order- or clock-dependent constructs in deterministic
//	                packages
//
// Malformed //foam: directives are diagnostics too (analyzer "pragma"),
// never silently ignored.
//
// The contracts the retired analyzers checked are held by the program and
// its tests (DESIGN.md §10.3): sched.Compile rejects a miswired component
// pair, a race test exercises the ensemble scheduler's lock, a restart
// into a foreign state must reproduce the original run, shared tables
// must hash the same after their members step, and the land, river and
// sea-ice water ledgers must close to round-off.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding. Position is resolved (file, line, column).
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical path:line:col form used
// by the foam-lint text output.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Package is one type-checked, non-test package of the analyzed module.
type Package struct {
	// Path is the import path ("foam/internal/spectral").
	Path string
	// Dir is the absolute directory the files live in.
	Dir string
	// Files are the parsed non-test files, with comments.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info

	// Deterministic is set when any file's package doc carries
	// //foam:deterministic.
	Deterministic bool
}

// Program is a fully loaded module: every non-test package, type-checked,
// with the pragma vocabulary resolved. Build one with LoadModule.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	RootDir    string
	Packages   []*Package // sorted by import path

	byPath  map[string]*Package
	pragmas *pragmaInfo
	// funcs indexes the module's functions (see core.go); funcList holds
	// the same nodes in source position order.
	funcs    map[*types.Func]*funcNode
	funcList []*funcNode
}

// Analyzer is one rule of the suite. Run inspects the whole program (the
// hot-path analyzer follows calls across packages) and reports through
// the callback; suppression (//foam:allow) and sorting are applied by
// Program.Run, not by individual analyzers.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, report func(Diagnostic))
}

// Analyzers returns the full foam-lint suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerHotPathAlloc,
		AnalyzerNondeterminism,
	}
}

// Run executes the given analyzers over the program and returns the
// surviving diagnostics: pragma-parse errors first-class among them,
// //foam:allow suppressions applied, and the result sorted by
// (file, line, column, analyzer, message) so CI logs diff cleanly.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, prog.pragmas.diags...)
	for _, a := range analyzers {
		a.Run(prog, func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		})
	}
	kept := diags[:0]
	for _, d := range diags {
		if !prog.pragmas.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(kept)
	return kept
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Lookup returns the loaded package with the given import path, or nil.
func (prog *Program) Lookup(path string) *Package { return prog.byPath[path] }

// position resolves a token.Pos against the program's file set.
func (prog *Program) position(pos token.Pos) token.Position {
	return prog.Fset.Position(pos)
}
