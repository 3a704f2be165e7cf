package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"foam/internal/core"
	"foam/internal/scenario"
)

// hashState feeds a value to h in declaration order, independent of any
// serialization, unexported fields included: integers as 8 little-endian
// bytes, floats as their IEEE bits (so -0 and NaN payloads count), bools
// as one byte, strings and slices as their length then bytes or elements,
// pointers as a presence byte then the pointee. A pointer back to a value
// on the current path is a third presence byte, so cycles end; onPath
// holds those pointers.
func hashState(h hash.Hash, v reflect.Value, onPath map[pathKey]bool) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		put(v.Uint())
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Complex128:
		c := v.Complex()
		put(math.Float64bits(real(c)))
		put(math.Float64bits(imag(c)))
	case reflect.Bool:
		if v.Bool() {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice:
		put(uint64(v.Len()))
		// A float row goes to h in one write: the same bytes as one
		// element at a time, far fewer hash calls.
		if v.CanInterface() {
			switch s := v.Interface().(type) {
			case []float64, []complex128:
				binary.Write(h, binary.LittleEndian, s)
				return
			}
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			hashState(h, v.Index(i), onPath)
		}
	case reflect.Ptr:
		if v.IsNil() {
			h.Write([]byte{0})
			return
		}
		k := pathKey{v.Type(), v.Pointer()}
		if onPath[k] {
			h.Write([]byte{2})
			return
		}
		onPath[k] = true
		h.Write([]byte{1})
		hashState(h, v.Elem(), onPath)
		delete(onPath, k)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashState(h, v.Field(i), onPath)
		}
	default:
		panic(fmt.Sprintf("hashState: unsupported kind %s", v.Kind()))
	}
}

// pathKey is a pointer on the current path of a hashState walk.
type pathKey struct {
	t reflect.Type
	p uintptr
}

// stateHash hashes everything reachable from v: a checkpoint, or a
// shared table set.
func stateHash(v any) string {
	h := sha256.New()
	hashState(h, reflect.ValueOf(v), make(map[pathKey]bool))
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioConfig compiles the named registry scenario.
func scenarioConfig(t testing.TB, name string) core.Config {
	t.Helper()
	sp, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("no scenario %q", name)
	}
	cfg, err := scenario.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func buildScenario(t testing.TB, name string, workers int) *core.Model {
	t.Helper()
	sp, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("no scenario %q", name)
	}
	return buildSpec(t, sp, workers)
}

func buildSpec(t testing.TB, sp scenario.Spec, workers int) *core.Model {
	t.Helper()
	cfg, err := scenario.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestCheckpointStatePinned pins what a checkpoint holds, not how it is
// written: the hashes must hold across any change of the container format,
// which breaks byte-for-byte comparison of checkpoint files between
// commits. They were recorded on the tree that still gob-encoded
// checkpoints (commit 24fa884) and re-recorded once for each change meant
// to move bits, whose end states differ from the previous ones by at most
// a stated fraction of each field's largest magnitude: 1.7e-12 for the
// hemispheric-pair transform (EXPERIMENTS.md E20), 1.1e-12 for the
// factored FFT butterflies (E21). paper-foam stops mid-interval (30 steps
// = 2.5 coupling intervals), so the flux accumulators are non-zero.
// slab-ocean hashes its checkpoint without the ocean's levels below the
// surface and without its currents and free surface (surfaceOnly): a slab
// never moves them, and the model need not hold them.
func TestCheckpointStatePinned(t *testing.T) {
	cases := []struct {
		scenario string
		steps    int // 0: run days instead
		days     float64
		surface  bool // hash through surfaceOnly
		want     string
	}{
		{scenario: "r5-quick", days: 2, want: "018bf1766bdbb7a1fa2024622b07506fddcdd1327bf4f79d9c2bf2d6e3a1d53a"},
		{scenario: "paper-foam", steps: 30, want: "b9b3d14dbeea87ee944672b0db93a6d765259eccf478bef9527a6e09b93c1475"},
		{scenario: "slab-ocean", days: 10, surface: true, want: "8fd47a1c10a68eadb7b18aa847df71659f8694c54b504255b5d0de9d375b3c9e"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.scenario, workers), func(t *testing.T) {
				if testing.Short() && tc.scenario == "paper-foam" {
					t.Skip("paper resolution; the bit-identity job and plain go test run it")
				}
				m := buildScenario(t, tc.scenario, workers)
				if tc.steps > 0 {
					for i := 0; i < tc.steps; i++ {
						m.Step()
					}
				} else {
					m.StepDays(tc.days)
				}
				chk := m.Checkpoint()
				if tc.surface {
					chk = surfaceOnly(chk)
				}
				if got := stateHash(chk); got != tc.want {
					t.Errorf("state hash %s, pinned %s", got, tc.want)
				}
			})
		}
	}
}

// surfaceOnly returns c with only the surface level of the ocean's T and S
// and without its U, V, Eta, Ubt and Vbt: the ocean state a slab or
// prescribed surface evolves.
func surfaceOnly(c *core.Checkpoint) *core.Checkpoint {
	o := *c.Ocn
	o.T, o.S = o.T[:1], o.S[:1]
	o.U, o.V, o.Eta, o.Ubt, o.Vbt = nil, nil, nil, nil, nil
	c.Ocn = &o
	return c
}

// TestZonalImagStaysPlusZero: after coupled steps every m = 0 spectral
// coefficient of the atmosphere state still has an imaginary part of
// exactly +0. The checkpoint container elides +0 words only, so a -0 or a
// rounding residue there would grow every checkpoint (checkpoint_kb).
func TestZonalImagStaysPlusZero(t *testing.T) {
	for _, name := range []string{"r5-quick", "paper-foam"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "paper-foam" {
				t.Skip("paper resolution")
			}
			m := buildScenario(t, name, 1)
			for i := 0; i < 30; i++ {
				m.Step()
			}
			a := m.Checkpoint().Atm
			nz := m.Config().Atm.Trunc.K + 1 // Index(0, n) = n
			fields := map[string][][]complex128{"VortC": a.VortC, "DivC": a.DivC, "TempC": a.TempC,
				"VortO": a.VortO, "DivO": a.DivO, "TempO": a.TempO, "Lnps": {a.LnpsC, a.LnpsO}}
			for fname, levels := range fields {
				for k, c := range levels {
					for n := 0; n < nz; n++ {
						if v := imag(c[n]); math.Float64bits(v) != 0 {
							t.Fatalf("%s level %d: Im(0,%d) = %v, want +0", fname, k, n, v)
						}
					}
				}
			}
		})
	}
}
