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
		"//foam:allow floatcmp exact sentinel value",
		"//foam:allow",
		"//foam:allow  ",
		"//foam:",
		"//foam: ",
		"// foam:hotpath",
		"//foam:hotpath\textra",
		"// ordinary comment",
		"/* foam:hotpath */",
		"//foam:allow floatcmp nbsp reason",
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

// FuzzParseUnit throws arbitrary text at the unit-expression parser and
// checks the grammar's invariants: ParseUnit must never panic, and for
// every accepted expression parse→Canonical→parse must be a fixed point —
// the canonical string parses back to the same dimension vector and
// canonicalizes to itself.
func FuzzParseUnit(f *testing.F) {
	for _, seed := range []string{
		"m", "s", "kg", "K", "psu",
		"W/m^2", "kg/m^2/s", "N/m^2", "J/kg/K", "W/m^2/K^4",
		"m^2/s^2", "degC", "degC*m^3", "rad/s", "1", "1/s",
		"m/s/s", "kg*m/s^2", "m^-1", "m^0", "1^2", "furlong",
		"", "/", "*", "m/", "/m", "m**s", "m^", "m^x", "m^9999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := ParseUnit(src)
		if err != nil {
			return // rejected input: only the no-panic invariant applies
		}
		canon := u.Canonical()
		u2, err := ParseUnit(canon)
		if err != nil {
			t.Fatalf("ParseUnit(%q) accepted, but its canonical %q does not parse: %v", src, canon, err)
		}
		if got := u2.Canonical(); got != canon {
			t.Fatalf("canonical not a fixed point: ParseUnit(%q) -> %q, reparsed -> %q", src, canon, got)
		}
	})
}
