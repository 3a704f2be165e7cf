package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func goodTrace() []span {
	return []span{
		{ID: 0, Parent: -1, Name: "run", Replay: -1, Op: -1, StartNs: 10, EndNs: 1000},
		{ID: 1, Parent: 0, Name: "replay", Replay: 1, Op: -1, StartNs: 20, EndNs: 500},
		{ID: 2, Parent: 1, Name: "op.advance", Replay: 1, Op: 0, StartNs: 30, EndNs: 400},
		{ID: 3, Parent: 2, Name: "atmos.step", Replay: 1, Op: 0, StartNs: 40, EndNs: 300},
		{ID: 4, Parent: 3, Name: "coupler.exchange", Replay: 1, Op: 0, StartNs: 100, EndNs: 150},
		{ID: 5, Parent: 0, Name: "replay", Replay: 3, Op: -1, StartNs: 510, EndNs: 990},
		{ID: 6, Parent: 5, Name: "op.advance", Replay: 3, Op: 0, StartNs: 520, EndNs: 900},
		{ID: 7, Parent: 6, Name: "atmos.step", Replay: 3, Op: 0, StartNs: 530, EndNs: 760},
		{ID: 8, Parent: 7, Name: "coupler.exchange", Replay: 3, Op: 0, StartNs: 600, EndNs: 660},
	}
}

func TestVerifySpans(t *testing.T) {
	if err := verifySpans(goodTrace()); err != nil {
		t.Fatalf("good trace rejected: %v", err)
	}
	cases := []struct {
		name   string
		break_ func(s []span) []span
		want   string
	}{
		{"unclosed", func(s []span) []span { s[4].EndNs = 0; return s }, "never closed"},
		{"escapes parent", func(s []span) []span { s[4].EndNs = 350; return s }, "escapes parent"},
		{"two roots", func(s []span) []span { s[5].Parent = -1; return s }, "root spans"},
		{"overlapping children", func(s []span) []span {
			return append(s, span{ID: 9, Parent: 3, Name: "x", StartNs: 60, EndNs: 290})
		}, "overlap"},
		{"empty", func(s []span) []span { return nil }, "no spans"},
	}
	for _, c := range cases {
		err := verifySpans(c.break_(goodTrace()))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestLayerFloors(t *testing.T) {
	fl, calls := layerFloors(goodTrace(), 1)
	if got := fl["atmos.step"][0]; got != 230 { // min(260, 230)
		t.Errorf("atmos.step floor = %d, want 230", got)
	}
	if got := fl["coupler.exchange"][0]; got != 50 { // min(50, 60)
		t.Errorf("coupler.exchange floor = %d, want 50", got)
	}
	if calls["atmos.step"] != 1 || calls["replay"] != 0 {
		t.Errorf("calls = %v, want one atmos.step per replay and no op-less spans", calls)
	}
}

func TestTracerRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin("run")
	tr.at(0, 0, true)
	a := tr.begin("op.x")
	b := tr.begin("layer")
	tr.end(b)
	tr.end(a)
	tr.at(-1, -1, true)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeSpans(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	if err := verifyTraceFile(path); err != nil {
		t.Fatalf("recorded trace rejected: %v", err)
	}
	if s := tr.spans[2]; s.Parent != 1 || s.Replay != 0 || s.Op != 0 {
		t.Errorf("layer span = %+v, want parent 1 at replay 0 op 0", s)
	}
	// Switched off, the tracer records nothing and hands out no ids.
	n := len(tr.spans)
	tr.at(1, 0, false)
	tr.end(tr.begin("x"))
	if len(tr.spans) != n {
		t.Errorf("tracer recorded a span while off")
	}
	// A nil tracer is the untraced run.
	var off *tracer
	off.at(1, 2, true)
	off.end(off.begin("x"))
}
