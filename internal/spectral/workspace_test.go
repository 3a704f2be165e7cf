package spectral

import (
	"math/rand"
	"strings"
	"testing"

	"foam/internal/pool"
)

// testFields builds a transform plus deterministic grid/spectral inputs.
func testFields(t Truncation) (tr *Transform, grid, grid2 []float64, spec []complex128) {
	nlat, nlon := t.GridFor()
	tr = NewTransform(t, nlat, nlon)
	rng := rand.New(rand.NewSource(31))
	grid = make([]float64, nlat*nlon)
	grid2 = make([]float64, nlat*nlon)
	for i := range grid {
		grid[i] = rng.NormFloat64()
		grid2[i] = rng.NormFloat64()
	}
	spec = make([]complex128, t.Count())
	for m := 0; m <= t.M; m++ {
		for n := m; n <= m+t.K; n++ {
			im := rng.NormFloat64()
			if m == 0 {
				im = 0
			}
			spec[t.Index(m, n)] = complex(rng.NormFloat64(), im)
		}
	}
	return tr, grid, grid2, spec
}

// TestWorkspaceMatchesAllocatingAPI pins the *Into entry points to the
// allocating wrappers bit-for-bit, serial and pooled.
func TestWorkspaceMatchesAllocatingAPI(t *testing.T) {
	for _, workers := range []int{1, 3} {
		tr, grid, grid2, spec := testFields(Rhomboidal(10))
		var p *pool.Pool
		if workers > 1 {
			p = pool.New(workers)
			defer p.Close()
			tr.SetPool(p)
		}
		ws := tr.NewWorkspace()
		n := tr.NLat * tr.NLon
		cnt := tr.Trunc.Count()

		wantSpec := tr.Analyze(grid)
		gotSpec := make([]complex128, cnt)
		tr.AnalyzeInto(gotSpec, grid, ws)
		for i := range wantSpec {
			if gotSpec[i] != wantSpec[i] {
				t.Fatalf("workers=%d AnalyzeInto differs at %d", workers, i)
			}
		}

		wantGrid := tr.Synthesize(spec)
		gotGrid := make([]float64, n)
		tr.SynthesizeInto(gotGrid, spec, ws)
		for i := range wantGrid {
			if gotGrid[i] != wantGrid[i] {
				t.Fatalf("workers=%d SynthesizeInto differs at %d", workers, i)
			}
		}

		wf, wd, wh := tr.SynthesizeWithDerivs(spec)
		gf, gd, gh := make([]float64, n), make([]float64, n), make([]float64, n)
		tr.SynthesizeWithDerivsInto(gf, gd, gh, spec, ws)
		for i := 0; i < n; i++ {
			if gf[i] != wf[i] || gd[i] != wd[i] || gh[i] != wh[i] {
				t.Fatalf("workers=%d SynthesizeWithDerivsInto differs at %d", workers, i)
			}
		}

		wU, wV := tr.SynthesizeUV(gotSpec, wantSpec)
		gU, gV := make([]float64, n), make([]float64, n)
		tr.SynthesizeUVInto(gU, gV, gotSpec, wantSpec, ws)
		for i := 0; i < n; i++ {
			if gU[i] != wU[i] || gV[i] != wV[i] {
				t.Fatalf("workers=%d SynthesizeUVInto differs at %d", workers, i)
			}
		}

		wantDiv := tr.AnalyzeDivForm(grid, grid2, 1, -1)
		gotDiv := make([]complex128, cnt)
		tr.AnalyzeDivFormInto(gotDiv, grid, grid2, 1, -1, ws)
		for i := range wantDiv {
			if gotDiv[i] != wantDiv[i] {
				t.Fatalf("workers=%d AnalyzeDivFormInto differs at %d", workers, i)
			}
		}

		wVort, wDiv2 := tr.VortDivTend(grid, grid2)
		gVort, gDiv2 := make([]complex128, cnt), make([]complex128, cnt)
		tr.VortDivTendInto(gVort, gDiv2, grid, grid2, ws)
		for i := range wVort {
			if gVort[i] != wVort[i] || gDiv2[i] != wDiv2[i] {
				t.Fatalf("workers=%d VortDivTendInto differs at %d", workers, i)
			}
		}
	}
}

// TestAnalyzeDivFormSignFolding pins the folded sign parameters to explicit
// grid negation, bit-for-bit: negating a grid argument and flipping its
// sign parameter must be exactly equivalent.
func TestAnalyzeDivFormSignFolding(t *testing.T) {
	tr, grid, grid2, _ := testFields(Rhomboidal(8))
	neg := func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = -v
		}
		return out
	}
	base := tr.AnalyzeDivForm(neg(grid), neg(grid2), 1, 1)
	folded := tr.AnalyzeDivForm(grid, grid2, -1, -1)
	for i := range base {
		if base[i] != folded[i] {
			t.Fatalf("sign folding not bit-identical at %d: %v vs %v", i, folded[i], base[i])
		}
	}
	base = tr.AnalyzeDivForm(grid2, neg(grid), 1, 1)
	folded = tr.AnalyzeDivForm(grid2, grid, 1, -1)
	for i := range base {
		if base[i] != folded[i] {
			t.Fatalf("signB folding not bit-identical at %d", i)
		}
	}
}

// TestVortDivTendMatchesComposition pins VortDivTend against its defining
// composition out of AnalyzeDivForm.
func TestVortDivTendMatchesComposition(t *testing.T) {
	tr, A, B, _ := testFields(Rhomboidal(8))
	vort, div := tr.VortDivTend(A, B)
	wantVort := tr.AnalyzeDivForm(A, B, -1, -1)
	wantDiv := tr.AnalyzeDivForm(B, A, 1, -1)
	for i := range vort {
		if vort[i] != wantVort[i] || div[i] != wantDiv[i] {
			t.Fatalf("VortDivTend differs from composition at %d", i)
		}
	}
}

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", r)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not mention %q", msg, substr)
		}
	}()
	f()
}

// TestWorkspaceMisusePanics: aliased destinations and wrong-length buffers
// must fail loudly, not corrupt state.
func TestWorkspaceMisusePanics(t *testing.T) {
	tr, grid, _, spec := testFields(Rhomboidal(6))
	ws := tr.NewWorkspace()
	n := tr.NLat * tr.NLon
	cnt := tr.Trunc.Count()
	U := make([]float64, n)
	vort := make([]complex128, cnt)
	div := make([]complex128, cnt)

	mustPanic(t, "must not alias", func() { tr.SynthesizeUVInto(U, U, spec, spec, ws) })
	mustPanic(t, "must not alias", func() { tr.SynthesizeWithDerivsInto(U, U, make([]float64, n), spec, ws) })
	mustPanic(t, "must not alias", func() { tr.VortDivTendInto(vort, vort, grid, grid, ws) })

	mustPanic(t, "grid length", func() { tr.AnalyzeInto(vort, grid[:n-1], ws) })
	mustPanic(t, "spectral length", func() { tr.AnalyzeInto(vort[:cnt-1], grid, ws) })
	mustPanic(t, "grid length", func() { tr.SynthesizeInto(U[:n-2], spec, ws) })
	mustPanic(t, "spectral length", func() { tr.SynthesizeUVInto(U, make([]float64, n), vort[:1], div, ws) })
	mustPanic(t, "grid length", func() { tr.AnalyzeDivFormInto(vort, grid[:2], grid, 1, 1, ws) })

	other := NewTransform(Rhomboidal(6), tr.NLat, tr.NLon)
	mustPanic(t, "other than its creator", func() { other.AnalyzeInto(vort, grid, ws) })

	// A workspace built before the pool grew must be rejected, not index
	// out of range.
	p := pool.New(4)
	defer p.Close()
	tr.SetPool(p)
	mustPanic(t, "rebuild workspaces", func() { tr.AnalyzeInto(vort, grid, ws) })
}

// TestTransformAllocFree gates the steady-state allocation contract of
// every *Into entry point: zero allocations per call with a warm
// workspace.
func TestTransformAllocFree(t *testing.T) {
	tr, grid, grid2, spec := testFields(R15)
	ws := tr.NewWorkspace()
	n := tr.NLat * tr.NLon
	cnt := tr.Trunc.Count()
	outG := make([]float64, n)
	outG2 := make([]float64, n)
	outG3 := make([]float64, n)
	outS := make([]complex128, cnt)
	outS2 := make([]complex128, cnt)

	cases := []struct {
		name string
		f    func()
	}{
		{"AnalyzeInto", func() { tr.AnalyzeInto(outS, grid, ws) }},
		{"SynthesizeInto", func() { tr.SynthesizeInto(outG, spec, ws) }},
		{"SynthesizeWithDerivsInto", func() { tr.SynthesizeWithDerivsInto(outG, outG2, outG3, spec, ws) }},
		{"SynthesizeUVInto", func() { tr.SynthesizeUVInto(outG, outG2, spec, spec, ws) }},
		{"AnalyzeDivFormInto", func() { tr.AnalyzeDivFormInto(outS, grid, grid2, 1, -1, ws) }},
		{"VortDivTendInto", func() { tr.VortDivTendInto(outS, outS2, grid, grid2, ws) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(20, tc.f); allocs > 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", tc.name, allocs)
		}
	}
}

// TestGridForPinned pins the transform grids for the truncations the model
// and its tests actually use (R4 reduced, R15 paper, R21 headroom).
func TestGridForPinned(t *testing.T) {
	cases := []struct {
		M          int
		nlat, nlon int
	}{
		{4, 12, 16},
		{15, 40, 48},
		{21, 54, 64},
	}
	for _, c := range cases {
		nlat, nlon := Rhomboidal(c.M).GridFor()
		if nlat != c.nlat || nlon != c.nlon {
			t.Errorf("R%d grid = %dx%d, want %dx%d", c.M, nlat, nlon, c.nlat, c.nlon)
		}
	}
}

// TestTransformPoolMatchesSerial: the pair phases split row pairs (and the
// accumulations zonal wavenumbers) across workers, and every pair or m
// belongs to one worker, so every entry point must give results == to
// serial at any worker count — including counts that leave blocks uneven.
func TestTransformPoolMatchesSerial(t *testing.T) {
	const nf = 3
	run := func(workers int) (outS [][]complex128, outG [][]float64) {
		tr := newRefTransform(t, 15, workers)
		ws := tr.NewWorkspaceMany(nf)
		grids, specs := randFields(tr, 77, 2*nf, 2*nf)
		for i := 0; i < 2*nf; i++ {
			outS = append(outS, make([]complex128, tr.Trunc.Count()))
			outG = append(outG, make([]float64, tr.NLat*tr.NLon))
		}
		tr.AnalyzeManyInto(outS[:nf], grids[:nf], ws)
		tr.AnalyzeDivPairManyInto(outS[nf:], outS[:nf], grids[:nf], grids[nf:], 1, -1, -1, 1, ws)
		tr.SynthesizeManyInto(outG[:nf], specs[:nf], ws)
		tr.SynthesizeUVManyInto(outG[:nf], outG[nf:], specs[:nf], specs[nf:], ws)
		tr.SynthesizeWithDerivsInto(outG[0], outG[1], outG[2], specs[0], ws)
		tr.VortDivTendInto(outS[0], outS[1], grids[0], grids[1], ws)
		return outS, outG
	}
	wantS, wantG := run(1)
	for _, workers := range []int{3, 7} {
		gotS, gotG := run(workers)
		for f := range wantS {
			if i := sameF64(flatC(gotS[f]), flatC(wantS[f])); i >= 0 {
				t.Fatalf("workers=%d spectral field %d differs at %d", workers, f, i)
			}
			if i := sameF64(gotG[f], wantG[f]); i >= 0 {
				t.Fatalf("workers=%d grid field %d differs at %d", workers, f, i)
			}
		}
	}
}
