package main

import (
	"reflect"
	"testing"

	"foam/internal/scenario"
)

func TestSeedDeterminesInputs(t *testing.T) {
	gens := map[string]func(uint64) any{
		"coupled_r15":    func(s uint64) any { return coupledR15Inputs(s) },
		"ocean_128":      func(s uint64) any { return ocean128Inputs(s) },
		"atmos_r21_slab": func(s uint64) any { return atmosR21SlabInputs(s) },
		"ensemble_r5":    func(s uint64) any { return ensembleR5Inputs(s) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 generated two different inputs", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
	// The work in a block must not depend on the seed.
	for s := uint64(0); s < 8; s++ {
		c := coupledR15Inputs(s)
		if c.BlockTicks != 24 || c.WarmTicks%24 != 0 || c.WarmTicks < 48 {
			t.Errorf("seed %d: coupled_r15 warm-up %d, block %d: want whole radiation periods >= 1 day and a 24-tick block", s, c.WarmTicks, c.BlockTicks)
		}
		e := ensembleR5Inputs(s)
		if len(e.Members) != 8 || len(e.Rounds) != 4 || len(e.Lifecycle) != 8 {
			t.Errorf("seed %d: ensemble shape %d members, %d rounds, %d lifecycle", s, len(e.Members), len(e.Rounds), len(e.Lifecycle))
		}
		for _, m := range e.Members {
			if m.Diff4 < 0.9 || m.Diff4 >= 1.1 || m.Kappa0 < 0.8 || m.Kappa0 >= 1.2 {
				t.Errorf("seed %d: member deltas %+v out of range", s, m)
			}
		}
	}
}

func countKinds(script []op) map[string]int {
	n := map[string]int{}
	for _, o := range script {
		n[o.kind]++
	}
	return n
}

func TestScriptOpCounts(t *testing.T) {
	in := coupledR15Inputs(1)
	cfg, err := scenario.Build(in.Spec)
	if err != nil {
		t.Fatal(err)
	}
	c := &coupledRun{in: in, cfg: cfg}
	script := c.script(in.BlockTicks, fixedReps, readReps)
	want := map[string]int{"restore": 5, "advance": 24, "save": 5, "read": 8, "lifecycle": 5}
	if got := countKinds(script); !reflect.DeepEqual(got, want) {
		t.Errorf("coupled_r15 script = %v, want %v", got, want)
	}
	classes := map[string]int{}
	for _, o := range script {
		if o.kind == "advance" {
			classes[o.class]++
		}
	}
	if want := map[string]int{"radiation": 1, "couple": 2, "plain": 21}; !reflect.DeepEqual(classes, want) {
		t.Errorf("coupled_r15 tick classes = %v, want %v", classes, want)
	}
	if got := countKinds(c.handScript(nil, in.BlockTicks)); got["hand_advance"] != 24 || got["hand_restore"] != 1 {
		t.Errorf("hand-driven script = %v", got)
	}

	in = atmosR21SlabInputs(1)
	if cfg, err = scenario.Build(in.Spec); err != nil {
		t.Fatal(err)
	}
	classes = map[string]int{}
	for _, o := range (&coupledRun{in: in, cfg: cfg}).script(in.BlockTicks, 1, 1) {
		if o.kind == "advance" {
			classes[o.class]++
		}
	}
	if want := map[string]int{"radiation": 1, "couple": 1, "plain": 14}; !reflect.DeepEqual(classes, want) {
		t.Errorf("atmos_r21_slab tick classes = %v, want %v", classes, want)
	}

	o := &oceanRun{in: ocean128Inputs(1)}
	want = map[string]int{"restore": 5, "advance": 4, "save": 5, "read": 8, "lifecycle": 5}
	if got := countKinds(o.script(fixedReps, readReps)); !reflect.DeepEqual(got, want) {
		t.Errorf("ocean_128 script = %v, want %v", got, want)
	}

	e := &ensembleRun{in: ensembleR5Inputs(1)}
	want = map[string]int{"restore": 8, "advance": 32, "diag": 32, "read": 16, "save": 8, "fork": 8, "delete": 16}
	if got := countKinds(e.script(httpBackend{})); !reflect.DeepEqual(got, want) {
		t.Errorf("ensemble_r5 script = %v, want %v", got, want)
	}
}
