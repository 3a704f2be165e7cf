package analysis

import (
	"go/token"
	"testing"
)

func TestSplitDirective(t *testing.T) {
	cases := []struct {
		text       string
		verb, args string
		ok         bool
	}{
		{"//foam:hotpath", "hotpath", "", true},
		{"//foam:hotphases", "hotphases", "", true},
		{"//foam:allow nondeterminism exact sentinel", "allow", "nondeterminism exact sentinel", true},
		{"//foam:allow nondeterminism   padded  ", "allow", "nondeterminism   padded", true},
		{"//foam:", "", "", true},
		{"// foam:hotpath", "", "", false}, // spaced form is not a directive
		{"// ordinary comment", "", "", false},
		{"//foamy:hotpath", "", "", false},
		{"/* foam:hotpath */", "", "", false},
	}
	for _, c := range cases {
		verb, args, ok := splitDirective(c.text)
		if verb != c.verb || args != c.args || ok != c.ok {
			t.Errorf("splitDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, verb, args, ok, c.verb, c.args, c.ok)
		}
	}
}

func TestAllowSuppression(t *testing.T) {
	pi := &pragmaInfo{
		allow: []allowRange{{file: "a.go", line: 10, analyzer: "nondeterminism"}},
	}
	diag := func(file string, line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: file, Line: line}, Analyzer: analyzer}
	}
	if !pi.suppressed(diag("a.go", 10, "nondeterminism")) {
		t.Error("same-line diagnostic not suppressed")
	}
	if !pi.suppressed(diag("a.go", 11, "nondeterminism")) {
		t.Error("next-line diagnostic not suppressed")
	}
	if pi.suppressed(diag("a.go", 12, "nondeterminism")) {
		t.Error("line+2 diagnostic wrongly suppressed")
	}
	if pi.suppressed(diag("a.go", 9, "nondeterminism")) {
		t.Error("preceding-line diagnostic wrongly suppressed")
	}
	if pi.suppressed(diag("a.go", 10, "hotpathalloc")) {
		t.Error("other analyzer wrongly suppressed")
	}
	if pi.suppressed(diag("b.go", 10, "nondeterminism")) {
		t.Error("other file wrongly suppressed")
	}
}
