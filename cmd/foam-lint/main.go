// Command foam-lint runs FOAM-Go's project-specific static-analysis
// suite (internal/analysis): the compile-time enforcement of the
// zero-allocation hot path and of determinism in the packages that
// declare it, plus the //foam: directive parser.
//
// Usage:
//
//	foam-lint [-sarif] [pattern ...]
//
// The module containing the current directory is loaded in full (every
// non-test package); optional trailing patterns restrict which packages
// are *reported on* — "./..." (the default) means everything,
// "./internal/..." only that subtree. Several patterns are a union of
// scopes, and a finding inside overlapping patterns is reported once.
// Analysis always sees the whole module so cross-package hot-path
// traversal is never truncated.
//
// A finding that must stay is suppressed at its line with
// //foam:allow <analyzer> <reason>.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Text output
// is one "path:line:col: message [analyzer]" line per finding, sorted by
// (path, line, column) so CI logs diff cleanly; -sarif emits the same
// findings as a SARIF 2.1.0 log for CI inline annotations.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"foam/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("foam-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: foam-lint [-sarif] [pattern ...]\n\npatterns: ./... (default), or subtrees like ./internal/...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var subs []string
	for _, p := range patterns {
		sub, ok := patternDir(p)
		if !ok {
			fmt.Fprintf(stderr, "foam-lint: unsupported pattern %q (want ./... or ./dir/...)\n", p)
			return 2
		}
		subs = append(subs, sub)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "foam-lint:", err)
		return 2
	}
	root, modPath, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "foam-lint:", err)
		return 2
	}
	prog, err := analysis.LoadModule(root, modPath)
	if err != nil {
		fmt.Fprintln(stderr, "foam-lint:", err)
		return 2
	}

	diags := prog.Run(analysis.Analyzers())

	// Union of pattern scopes, each finding kept once: overlapping
	// patterns (./... plus an explicit subtree) must not double-report.
	var scopes []string
	for _, sub := range subs {
		scope, aerr := filepath.Abs(filepath.Join(cwd, sub))
		if aerr != nil {
			fmt.Fprintln(stderr, "foam-lint:", aerr)
			return 2
		}
		scopes = append(scopes, scope)
	}
	seen := make(map[string]bool)
	kept := diags[:0]
	for _, d := range diags {
		inScope := false
		for _, scope := range scopes {
			if d.Pos.Filename == scope || strings.HasPrefix(d.Pos.Filename, scope+string(filepath.Separator)) {
				inScope = true
				break
			}
		}
		if !inScope {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d:%s:%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		kept = append(kept, d)
	}
	diags = kept

	// Report paths relative to the working directory: stable across
	// checkouts, so CI logs from different machines diff cleanly.
	for i := range diags {
		if rel, rerr := filepath.Rel(cwd, diags[i].Pos.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	if *sarifOut {
		if err := analysis.WriteSARIF(stdout, diags, analysis.Analyzers()); err != nil {
			fmt.Fprintln(stderr, "foam-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*sarifOut {
			fmt.Fprintf(stderr, "foam-lint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// patternDir maps a package pattern to the directory subtree it covers,
// relative to the working directory. Only rooted "..." patterns are
// supported: this linter analyzes modules, not arbitrary package lists.
func patternDir(pattern string) (string, bool) {
	switch pattern {
	case "./...", "...", ".":
		return ".", true
	}
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		if rest == "" {
			return "", false
		}
		return filepath.FromSlash(rest), true
	}
	return "", false
}
