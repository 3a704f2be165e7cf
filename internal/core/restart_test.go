package core

import (
	"bytes"
	"math"
	"testing"
)

// A restart chain must reproduce the uninterrupted run exactly: run A for
// 2 days; run B for 1 day, checkpoint, restore into a fresh model, run the
// second day; compare final states bit-for-bit.
func TestRestartReproducesRun(t *testing.T) {
	cfg := ReducedConfig()

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.StepDays(2)

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.StepDays(1)
	chk := b.Checkpoint()

	// Round-trip through the version-1 container too.
	var buf bytes.Buffer
	if err := chk.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if c.StepCount() != b.StepCount() {
		t.Fatalf("restored step %d want %d", c.StepCount(), b.StepCount())
	}
	c.StepDays(1)

	// Compare final SST and atmosphere diagnostics exactly.
	sa, sc := a.SST(), c.SST()
	for i := range sa {
		if sa[i] != sc[i] {
			t.Fatalf("SST differs at %d after restart: %v vs %v (d=%e)",
				i, sa[i], sc[i], sa[i]-sc[i])
		}
	}
	da, dc := a.Diagnostics(), c.Diagnostics()
	if da.Atm.MeanT != dc.Atm.MeanT || da.Atm.MeanPs != dc.Atm.MeanPs {
		t.Fatalf("atmosphere diagnostics differ: %+v vs %+v", da.Atm, dc.Atm)
	}
	if math.Abs(da.Ocn.MeanSST-dc.Ocn.MeanSST) != 0 {
		t.Fatalf("ocean diagnostics differ: %v vs %v", da.Ocn.MeanSST, dc.Ocn.MeanSST)
	}
}

func TestCheckpointRejectsIncomplete(t *testing.T) {
	m, err := New(ReducedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(&Checkpoint{}); err == nil {
		t.Fatal("expected error for empty checkpoint")
	}
}
