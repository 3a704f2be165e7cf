package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"foam/internal/atmos"
	"foam/internal/ocean"
)

// miniCheckpoint is the small hand-built checkpoint the decoder tests, the
// fuzz seeds and testdata/mini.v1.ckpt share; testdata/pre-v1.gob.ckpt is
// its encoding by the last commit that wrote gob. Most fields are nil; the
// others hold one or two values.
func miniCheckpoint() *Checkpoint {
	return &Checkpoint{
		Step: 42,
		Atm: &atmos.Snapshot{
			Step:  42,
			LnpsC: []complex128{1 + 2i},
			Q:     [][]float64{{0.001, 0.002}},
		},
		Ocn: &ocean.Snapshot{
			Step: 3,
			Eta:  []float64{0.1, -0.1},
			T:    [][]float64{{10, 11}},
		},
		LandWater: []float64{5},
	}
}

// sectionWriter records where each Write ends: the encoder issues one for
// the file header and one per section, so these are the section boundaries.
type sectionWriter struct {
	bytes.Buffer
	ends []int
}

func (w *sectionWriter) Write(p []byte) (int, error) {
	n, err := w.Buffer.Write(p)
	w.ends = append(w.ends, w.Len())
	return n, err
}

func encodeMini(t testing.TB) *sectionWriter {
	t.Helper()
	var w sectionWriter
	if err := miniCheckpoint().Save(&w); err != nil {
		t.Fatal(err)
	}
	return &w
}

// resealed returns data with the CRC of the section ending at end
// recomputed, so a hand-edited section reaches the check behind the CRC.
func resealed(data []byte, start, end int) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[end-4:], crc32.Checksum(out[start:end-4], castagnoli))
	return out
}

// hugeClaim is a container that is valid up to the header of the first
// slice section, which claims 2^20 x 2^20 elements, and ends there.
func hugeClaim(t testing.TB) []byte {
	t.Helper()
	w := encodeMini(t)
	secs, err := ckptSections("", reflect.ValueOf(miniCheckpoint()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range secs {
		if s.rank == 2 {
			out := s.header(append([]byte(nil), w.Bytes()[:w.ends[i]]...))
			out = binary.LittleEndian.AppendUint32(out, 1<<20)
			return binary.LittleEndian.AppendUint32(out, 1<<20)
		}
	}
	t.Fatal("no rank-2 section")
	return nil
}

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointFieldKinds: every field of the real Checkpoint has an
// encoding, and a field kind without one fails the walk by name instead of
// being dropped.
func TestCheckpointFieldKinds(t *testing.T) {
	c := &Checkpoint{Atm: new(atmos.Snapshot), Ocn: new(ocean.Snapshot)}
	secs, err := ckptSections("", reflect.ValueOf(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := reflect.TypeOf(*c).NumField() - 2 + reflect.TypeOf(*c.Atm).NumField() + reflect.TypeOf(*c.Ocn).NumField()
	if len(secs) != want {
		t.Fatalf("%d sections for %d fields", len(secs), want)
	}
	for _, bad := range []any{
		&struct{ Levels []int }{},
		&struct{ Name string }{},
		&struct{ Cube [][][]float64 }{},
		&struct{ F32 []float32 }{},
	} {
		name := reflect.TypeOf(bad).Elem().Field(0).Name
		if _, err := ckptSections("", reflect.ValueOf(bad), nil); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("field %s: error %v, want one naming the field", name, err)
		}
	}
	if err := (&Checkpoint{}).Save(&bytes.Buffer{}); err == nil {
		t.Error("Save of a checkpoint without snapshots: no error")
	}
	ragged := miniCheckpoint()
	ragged.Ocn.T = [][]float64{{1, 2}, {3}}
	if err := ragged.Save(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "Ocn.T") {
		t.Errorf("Save of a ragged field: error %v, want one naming Ocn.T", err)
	}
}

// TestLoadCheckpointErrors pins the error class, and the telling part of
// the message, for every way a file can be wrong.
func TestLoadCheckpointErrors(t *testing.T) {
	w := encodeMini(t)
	valid := w.Bytes()
	mut := func(off int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[off] = b
		return out
	}
	last := len(w.ends) - 1
	lastStart, lastEnd := w.ends[last-1], w.ends[last] // CplIceForm: nil, so header + CRC only
	etaEnd := 0                                        // Ocn.Eta: two non-zero words before its CRC
	secs, _ := ckptSections("", reflect.ValueOf(miniCheckpoint()), nil)
	for i, s := range secs {
		if s.name == "Ocn.Eta" {
			etaEnd = w.ends[i+1]
		}
	}
	etaStart := etaEnd - 4 - 16 - 1 - 4 - len("Ocn.Eta") - 3
	zeroWord := append([]byte(nil), valid...)
	clear(zeroWord[etaEnd-12 : etaEnd-4])
	padding := append([]byte(nil), valid...)
	padding[etaEnd-4-16-1] |= 0x80

	type badFile struct {
		name string
		data []byte
		want error
		msg  string
	}
	cases := []badFile{
		{"empty", nil, ErrCheckpointFormat, "file header: truncated"},
		{"text", []byte("not a checkpoint, not even close"), ErrCheckpointFormat, "bad magic"},
		{"pre-v1 gob", readTestdata(t, "pre-v1.gob.ckpt"), ErrCheckpointFormat, "pre-v1 gob checkpoint"},
		{"version 2", mut(8, 2), ErrCheckpointFormat, "format version 2"},
		{"section count", mut(12, valid[12]+1), ErrCheckpointFormat, "sections"},
		{"section name", mut(w.ends[0]+1, 'X'), ErrCheckpointFormat, "section Step: found header"},
		{"trailing byte", append(append([]byte(nil), valid...), 0), ErrCheckpointFormat, "end of file: trailing bytes"},
		{"flipped word bit", mut(etaEnd-8, valid[etaEnd-8]^0x10), ErrCheckpointCorrupt, "section Ocn.Eta"},
		{"flipped crc bit", mut(lastEnd-1, valid[lastEnd-1]^1), ErrCheckpointCorrupt, "section CplIceForm"},
		{"stored zero word", resealed(zeroWord, etaStart, etaEnd), ErrCheckpointFormat, "a stored word is zero"},
		{"bitmap padding", resealed(padding, etaStart, etaEnd), ErrCheckpointFormat, "bitmap padding"},
		{"claims 2^40 elements", hugeClaim(t), ErrCheckpointFormat, "truncated"},
		{"truncated inside the last section", valid[:lastStart+3], ErrCheckpointFormat, "section CplIceForm: truncated"},
	}
	for _, end := range w.ends[:last] {
		cases = append(cases, badFile{"truncated at a section boundary", valid[:end], ErrCheckpointFormat, "truncated"})
	}

	for _, tc := range cases {
		c, err := LoadCheckpoint(bytes.NewReader(tc.data))
		if c != nil || !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: checkpoint %v, error %v; want %v mentioning %q", tc.name, c != nil, err, tc.want, tc.msg)
		}
	}
	if _, err := LoadCheckpoint(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the unmodified container: %v", err)
	}
}

// TestLoadCheckpointAllocatesForBytesPresent: a 2^40-element claim with
// nothing behind it must fail without allocating for it.
func TestLoadCheckpointAllocatesForBytesPresent(t *testing.T) {
	data := hugeClaim(t)
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	_, err := LoadCheckpoint(bytes.NewReader(data))
	runtime.ReadMemStats(&z)
	if !errors.Is(err, ErrCheckpointFormat) {
		t.Fatalf("error %v, want %v", err, ErrCheckpointFormat)
	}
	if got := z.TotalAlloc - a.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), got)
	}
}

// TestMiniV1Loads: the committed version-1 file must load, to the same
// state, for as long as this build claims to read version 1.
func TestMiniV1Loads(t *testing.T) {
	data := readTestdata(t, "mini.v1.ckpt")
	got, err := LoadCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if want := miniCheckpoint(); !reflect.DeepEqual(got, want) {
		t.Fatalf("testdata/mini.v1.ckpt decodes to %+v, want %+v", got, want)
	}
	var again bytes.Buffer
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("re-encoding testdata/mini.v1.ckpt changes its bytes: the format moved without a version bump")
	}
}

// TestCheckpointBitPatterns: -0, NaN payloads and negative ints are words
// like any other; +0 is the only value not stored.
func TestCheckpointBitPatterns(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	c := miniCheckpoint()
	c.Step, c.AccSteps = -7, math.MinInt
	c.Ocn.Eta = []float64{math.Copysign(0, -1), 0, nan, math.Inf(-1), 0, 0, 0, 0, 5e-324}
	c.Atm.LnpsC = []complex128{complex(0, math.Copysign(0, -1)), complex(nan, 0)}
	c.LandT = [][4]float64{{0, 1, 0, 2}, {}, {0, 0, 0, math.Copysign(0, -1)}}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != c.Step || got.AccSteps != c.AccSteps {
		t.Errorf("ints: %d %d, want %d %d", got.Step, got.AccSteps, c.Step, c.AccSteps)
	}
	for i, v := range c.Ocn.Eta {
		if math.Float64bits(got.Ocn.Eta[i]) != math.Float64bits(v) {
			t.Errorf("Eta[%d]: bits %016x, want %016x", i, math.Float64bits(got.Ocn.Eta[i]), math.Float64bits(v))
		}
	}
	for i, v := range c.Atm.LnpsC {
		g := got.Atm.LnpsC[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(v)) || math.Float64bits(imag(g)) != math.Float64bits(imag(v)) {
			t.Errorf("LnpsC[%d]: %v, want %v", i, g, v)
		}
	}
	if !math.Signbit(got.LandT[2][3]) || got.LandT[0] != c.LandT[0] || len(got.LandT) != 3 {
		t.Errorf("LandT: %v, want %v", got.LandT, c.LandT)
	}
}

// TestSaveFileAtomic: a save that fails leaves the previous file as it
// was and no temporary behind; one that succeeds replaces it.
func TestSaveFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.chk")
	good := miniCheckpoint()
	if err := good.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := miniCheckpoint()
	bad.Ocn.T = [][]float64{{1, 2}, {3}} // fails after the earlier sections have been written
	if err := bad.SaveFile(path); err == nil {
		t.Fatal("saving a ragged checkpoint: no error")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("the failed save touched the previous file (read error %v)", err)
	}
	good.Step = 43
	if err := good.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if c, err := LoadCheckpointFile(path); err != nil || c.Step != 43 {
		t.Fatalf("after the second save: %+v, %v", c, err)
	}
	if names, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*")); len(names) != 1 {
		t.Fatalf("directory holds %v, want only the checkpoint", names)
	}
	if err := good.SaveFile(filepath.Join(path, "no", "such", "dir.chk")); err == nil {
		t.Fatal("saving under a path that is a file: no error")
	}
}
