package diag

import (
	"strings"
	"testing"

	"foam/internal/mp"
	"foam/internal/sphere"
)

func traceMachine() *mp.Machine {
	m := mp.NewMachine(3, mp.DefaultLink)
	m.Charge(0, "atmosphere", 2)
	m.Charge(0, "coupler", 0.5)
	m.Charge(1, "atmosphere", 1)
	m.Charge(1, "idle", 1.5)
	m.Charge(2, "ocean", 1)
	m.Charge(2, "idle", 1.5)
	return m
}

func TestGanttRendersAllRanks(t *testing.T) {
	var sb strings.Builder
	Gantt(&sb, traceMachine(), 60)
	out := sb.String()
	for _, want := range []string{"rank  0", "rank  1", "rank  2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in gantt output:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "O") ||
		!strings.Contains(out, "C") || !strings.Contains(out, ".") {
		t.Fatalf("missing activity symbols:\n%s", out)
	}
	// Rank 0's row must be mostly 'A' (2 of 2.5 seconds).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "rank  0") {
			a := strings.Count(line, "A")
			c := strings.Count(line, "C")
			if a <= c {
				t.Fatalf("rank 0 should be atmosphere-dominated: %s", line)
			}
		}
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	var sb strings.Builder
	Gantt(&sb, mp.NewMachine(1, mp.DefaultLink), 60)
	if !strings.Contains(sb.String(), "empty trace") {
		t.Fatalf("expected empty-trace message, got %q", sb.String())
	}
}

func TestSegmentTotals(t *testing.T) {
	tot := SegmentTotals(traceMachine())
	if tot["atmosphere"] != 3 {
		t.Fatalf("atmosphere total %v", tot["atmosphere"])
	}
	if tot["idle"] != 3 {
		t.Fatalf("idle total %v", tot["idle"])
	}
	if tot["ocean"] != 1 || tot["coupler"] != 0.5 {
		t.Fatalf("totals %v", tot)
	}
	var sb strings.Builder
	PrintSegmentTable(&sb, traceMachine())
	if !strings.Contains(sb.String(), "atmosphere") {
		t.Fatal("segment table missing labels")
	}
}

func TestAsciiMapMasksAndRange(t *testing.T) {
	g := sphere.NewGaussianGrid(8, 16)
	field := make([]float64, g.Size())
	mask := make([]bool, g.Size())
	for j := 0; j < 8; j++ {
		for i := 0; i < 16; i++ {
			c := g.Index(j, i)
			field[c] = float64(j)
			mask[c] = i%2 == 0
		}
	}
	var sb strings.Builder
	AsciiMap(&sb, g, field, mask, 16, "test")
	out := sb.String()
	if !strings.Contains(out, "test") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "[0.00 .. 7.00]") {
		t.Fatalf("range annotation missing: %s", out)
	}
	// Masked columns should appear as spaces inside the border.
	if !strings.Contains(out, " ") {
		t.Fatal("no masked cells rendered")
	}
}

func TestAsciiMapConstantField(t *testing.T) {
	g := sphere.NewGaussianGrid(8, 16)
	field := make([]float64, g.Size())
	for c := range field {
		field[c] = 5
	}
	var sb strings.Builder
	AsciiMap(&sb, g, field, nil, 16, "flat") // must not divide by zero
	if sb.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestCSVTable(t *testing.T) {
	var sb strings.Builder
	CSVTable(&sb, []string{"a", "b"}, [][]float64{{1, 2}, {3.5, -4}})
	want := "a,b\n1,2\n3.5,-4\n"
	if sb.String() != want {
		t.Fatalf("csv output %q want %q", sb.String(), want)
	}
}

func TestWritePGM(t *testing.T) {
	g := sphere.NewGaussianGrid(8, 16)
	field := make([]float64, g.Size())
	mask := make([]bool, g.Size())
	for c := range field {
		field[c] = float64(c)
		mask[c] = c%3 != 0
	}
	var sb strings.Builder
	if err := WritePGM(&sb, g, field, mask); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "P5\n16 8\n255\n") {
		t.Fatalf("bad PGM header: %q", out[:20])
	}
	if len(out) != len("P5\n16 8\n255\n")+8*16 {
		t.Fatalf("bad PGM size: %d", len(out))
	}
}
