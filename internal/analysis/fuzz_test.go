package analysis

import (
	"strings"
	"testing"
)

// FuzzParsePragma throws arbitrary comment text at the directive parser
// and checks its invariants rather than exact outputs: it must never
// panic, must only accept //foam:-prefixed text, and the (verb, args)
// split must reconstruct the directive it parsed.
func FuzzParsePragma(f *testing.F) {
	for _, seed := range []string{
		"//foam:hotpath",
		"//foam:hotphases",
		"//foam:coldpath",
		"//foam:deterministic",
		"//foam:allow nondeterminism exact sentinel value",
		"//foam:allow",
		"//foam:allow  ",
		"//foam:",
		"//foam: ",
		"// foam:hotpath",
		"//foam:hotpath\textra",
		"// ordinary comment",
		"/* foam:hotpath */",
		"//foam:allow nondeterminism nbsp reason",
		"//foam:\x00null",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		verb, args, ok := splitDirective(text)
		if !ok {
			if verb != "" || args != "" {
				t.Fatalf("splitDirective(%q) rejected input but returned (%q, %q)", text, verb, args)
			}
			if strings.HasPrefix(text, "//foam:") {
				t.Fatalf("splitDirective(%q) rejected a //foam: comment", text)
			}
			return
		}
		if !strings.HasPrefix(text, "//foam:") {
			t.Fatalf("splitDirective(%q) accepted text without the //foam: prefix", text)
		}
		if strings.Contains(verb, " ") {
			t.Fatalf("splitDirective(%q): verb %q contains a space", text, verb)
		}
		if args != strings.TrimSpace(args) {
			t.Fatalf("splitDirective(%q): args %q not trimmed", text, args)
		}
		// The split must cover the input: verb is what follows the prefix
		// up to the first space, args is the trimmed remainder.
		rest := strings.TrimPrefix(text, "//foam:")
		wantVerb, wantArgs, _ := strings.Cut(rest, " ")
		if verb != wantVerb || args != strings.TrimSpace(wantArgs) {
			t.Fatalf("splitDirective(%q) = (%q, %q), want (%q, %q)",
				text, verb, args, wantVerb, strings.TrimSpace(wantArgs))
		}
	})
}
