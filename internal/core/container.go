package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"reflect"

	"foam/internal/atmos"
	"foam/internal/ocean"
)

// The checkpoint container, format version 1 (DESIGN.md section 20). All
// integers are little-endian.
//
//	file    := "FOAMCKPT" version:u32 nsections:u32 section*
//	section := nameLen:u8 name dtype:u8 rank:u8 dim:u32{rank}
//	           bitmap word:u64* crc32c:u32
//
// A section is one field of the Checkpoint (or of its atmosphere / ocean
// snapshot, named "Atm.X" / "Ocn.X"), in declaration order, flattened to
// 64-bit words: an int or float64 is one word, a complex128 two (real,
// imaginary), a [4]float64 a trailing dimension of 4. The bitmap has one
// bit per word, least significant bit first, zero-padded to a whole byte;
// a bit is set exactly when the word's bit pattern is non-zero (so -0 and
// NaN payloads are kept), and only those words are stored. The CRC-32C
// covers the section from nameLen to its last word. One state has exactly
// one encoding, and the decoder rejects any other.
const (
	ckptMagic   = "FOAMCKPT"
	ckptVersion = 1

	dtF64  = 1 // float64
	dtC128 = 2 // complex128
	dtI64  = 3 // int

	ckptChunk = 1 << 10 // bitmap bytes per decoding step: 8192 words, 64 KB
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ckptSection is one serialized field: its name, a pointer to it, and how
// its type maps to the container (dtype, dimensions, words per element).
type ckptSection struct {
	name          string
	ptr           any
	dt            byte
	rank, perElem int
}

// ckptSections lists the exported fields of the struct v points to as
// sections, descending into pointer-to-struct fields (which must be
// non-nil). A field type the container has no encoding for is an error:
// a snapshot can grow fields without touching this file, but not one that
// would be silently dropped.
func ckptSections(prefix string, v reflect.Value, out []ckptSection) ([]ckptSection, error) {
	v = v.Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		if f.Kind() == reflect.Ptr && f.Type().Elem().Kind() == reflect.Struct {
			if f.IsNil() {
				return nil, fmt.Errorf("core: incomplete checkpoint: %s is nil", name)
			}
			var err error
			if out, err = ckptSections(name+".", f, out); err != nil {
				return nil, err
			}
			continue
		}
		s := ckptSection{name: name, ptr: f.Addr().Interface(), dt: dtF64, perElem: 1}
		switch s.ptr.(type) {
		case *int:
			s.dt = dtI64
		case *float64:
		case *[]float64:
			s.rank = 1
		case *[][]float64, *[][4]float64:
			s.rank = 2
		case *[]complex128:
			s.dt, s.rank, s.perElem = dtC128, 1, 2
		case *[][]complex128:
			s.dt, s.rank, s.perElem = dtC128, 2, 2
		default:
			return nil, fmt.Errorf("core: checkpoint field %s has type %s, which the container cannot encode", name, f.Type())
		}
		out = append(out, s)
	}
	return out, nil
}

// header appends the section's leading bytes — nameLen, name, dtype, rank —
// which the decoder expects verbatim.
func (s ckptSection) header(b []byte) []byte {
	b = append(append(b, byte(len(s.name))), s.name...)
	return append(b, s.dt, byte(s.rank))
}

// dims2 returns the dimensions of a rectangular slice of rows; rows with
// no elements are no rows.
func dims2[T any](name string, rows [][]T) ([]int, error) {
	d := []int{0, 0}
	if len(rows) > 0 && len(rows[0]) > 0 {
		d[0], d[1] = len(rows), len(rows[0])
	}
	for _, r := range rows {
		if len(r) != d[1] {
			return nil, fmt.Errorf("core: checkpoint field %s is ragged", name)
		}
	}
	return d, nil
}

// flatten returns the section's dimensions and its words as float rows.
// []float64 and [][]float64 are returned as they are; everything else is
// staged through flat, ints by bit pattern (a float64 is only ever moved
// here, never operated on, so any 64 bits survive the ride).
func (s ckptSection) flatten(flat []float64) (dims []int, rows [][]float64, _ []float64, err error) {
	flat = flat[:0]
	switch p := s.ptr.(type) {
	case *int:
		flat = append(flat, math.Float64frombits(uint64(int64(*p))))
	case *float64:
		flat = append(flat, *p)
	case *[]float64:
		return []int{len(*p)}, [][]float64{*p}, flat, nil
	case *[][]float64:
		dims, err = dims2(s.name, *p)
		return dims, *p, flat, err
	case *[][4]float64:
		dims = []int{len(*p), 4}
		for i := range *p {
			flat = append(flat, (*p)[i][:]...)
		}
	case *[]complex128:
		dims = []int{len(*p)}
		for _, c := range *p {
			flat = append(flat, real(c), imag(c))
		}
	case *[][]complex128:
		dims, err = dims2(s.name, *p)
		for _, r := range *p {
			for _, c := range r {
				flat = append(flat, real(c), imag(c))
			}
		}
	}
	return dims, [][]float64{flat}, flat, err
}

// build installs the decoded words as the section's value; flat becomes
// the backing store of float slices. Empty slices come back nil.
func (s ckptSection) build(dims []int, flat []float64) {
	if len(flat) == 0 {
		return
	}
	switch p := s.ptr.(type) {
	case *int:
		*p = int(int64(math.Float64bits(flat[0])))
	case *float64:
		*p = flat[0]
	case *[]float64:
		*p = flat
	case *[][]float64:
		*p = make([][]float64, dims[0])
		for i := range *p {
			(*p)[i] = flat[i*dims[1] : (i+1)*dims[1] : (i+1)*dims[1]]
		}
	case *[][4]float64:
		*p = make([][4]float64, dims[0])
		for i := range *p {
			copy((*p)[i][:], flat[4*i:])
		}
	case *[]complex128:
		*p = make([]complex128, dims[0])
		for i := range *p {
			(*p)[i] = complex(flat[2*i], flat[2*i+1])
		}
	case *[][]complex128:
		back := make([]complex128, dims[0]*dims[1])
		for i := range back {
			back[i] = complex(flat[2*i], flat[2*i+1])
		}
		*p = make([][]complex128, dims[0])
		for i := range *p {
			(*p)[i] = back[i*dims[1] : (i+1)*dims[1] : (i+1)*dims[1]]
		}
	}
}

// encodeCheckpoint writes c to w as a version-1 container, one Write per
// section. Its scratch (one section's bytes, the staging row) is sized by
// the largest section and dropped on return.
func encodeCheckpoint(w io.Writer, c *Checkpoint) error {
	secs, err := ckptSections("", reflect.ValueOf(c), nil)
	if err != nil {
		return err
	}
	head := binary.LittleEndian.AppendUint32([]byte(ckptMagic), ckptVersion)
	if _, err := w.Write(binary.LittleEndian.AppendUint32(head, uint32(len(secs)))); err != nil {
		return err
	}
	var flat []float64
	var buf []byte
	for _, s := range secs {
		var dims []int
		var rows [][]float64
		if dims, rows, flat, err = s.flatten(flat); err != nil {
			return err
		}
		buf = s.header(buf[:0])
		n := s.perElem
		for _, d := range dims {
			if uint64(d) > math.MaxUint32 {
				return fmt.Errorf("core: checkpoint field %s is too large", s.name)
			}
			buf, n = binary.LittleEndian.AppendUint32(buf, uint32(d)), n*d
		}
		bm, k := len(buf), len(buf)+(n+7)/8 // bitmap offset, then the next word's
		if cap(buf) < k+8*n+4 {
			buf = append(make([]byte, 0, k+8*n+4), buf...)
		}
		buf = buf[:cap(buf)]
		clear(buf[bm:k])
		bit := 8 * bm
		for _, r := range rows {
			for _, v := range r {
				if x := math.Float64bits(v); x != 0 {
					buf[bit>>3] |= 1 << (bit & 7)
					binary.LittleEndian.PutUint64(buf[k:], x)
					k += 8
				}
				bit++
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf[:k], crc32.Update(0, castagnoli, buf[:k]))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ckptDecoder reads a container through a fixed scratch buffer and folds
// what it reads into the running section checksum.
type ckptDecoder struct {
	r     io.Reader
	crc   uint32
	where string
	buf   [64 * ckptChunk]byte
}

func (d *ckptDecoder) format(detail string, a ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrCheckpointFormat, d.where, fmt.Sprintf(detail, a...))
}

// read returns the next n <= len(d.buf) bytes, valid until the next read.
func (d *ckptDecoder) read(n int) ([]byte, error) {
	p := d.buf[:n]
	if _, err := io.ReadFull(d.r, p); err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, d.format("truncated")
	} else if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	d.crc = crc32.Update(d.crc, castagnoli, p)
	return p, nil
}

// decodeCheckpoint reads a version-1 container. Memory is allocated only
// for bytes that have arrived: a section's bitmap is read in bounded steps
// before its words are allocated, so a header cannot claim more than 64
// times the input behind it.
func decodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	c := &Checkpoint{Atm: new(atmos.Snapshot), Ocn: new(ocean.Snapshot)}
	secs, err := ckptSections("", reflect.ValueOf(c), nil)
	if err != nil {
		return nil, err
	}
	d := &ckptDecoder{r: r, where: "file header"}
	h, err := d.read(len(ckptMagic) + 8)
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(h[8:]); string(h[:8]) != ckptMagic {
		if bytes.Contains(h, []byte("\x0aCheckp")) { // gob names the struct in its type definition
			return nil, d.format("pre-v1 gob checkpoint; this build reads format version %d", ckptVersion)
		}
		return nil, d.format("bad magic")
	} else if v != ckptVersion {
		return nil, d.format("format version %d, this build reads version %d", v, ckptVersion)
	}
	if n := binary.LittleEndian.Uint32(h[12:]); int(n) != len(secs) {
		return nil, d.format("%d sections, this build's checkpoint has %d", n, len(secs))
	}
	var bm []byte
	for _, s := range secs {
		d.where, d.crc = "section "+s.name, 0
		want := s.header(nil)
		if h, err = d.read(len(want) + 4*s.rank); err != nil {
			return nil, err
		}
		if !bytes.Equal(h[:len(want)], want) {
			return nil, d.format("found header %q", h[:len(want)])
		}
		dims, elems := make([]int, s.rank), uint64(1)
		for i := range dims {
			x := binary.LittleEndian.Uint32(h[len(want)+4*i:])
			dims[i], elems = int(x), elems*uint64(x) // two u32 factors cannot overflow
		}
		_, quad := s.ptr.(*[][4]float64)
		if elems > math.MaxInt/16 || (quad && dims[1] != 4) || (s.rank == 2 && !quad && (dims[0] == 0) != (dims[1] == 0)) {
			return nil, d.format("unsupported shape %v", dims)
		}
		n := int(elems) * s.perElem
		for bm = bm[:0]; len(bm) < (n+7)/8; bm = append(bm, h...) {
			if h, err = d.read(min((n+7)/8-len(bm), len(d.buf))); err != nil {
				return nil, err
			}
		}
		if n%8 != 0 && bm[len(bm)-1]>>(n%8) != 0 {
			return nil, d.format("bitmap padding is set")
		}
		out := make([]float64, n)
		for base := 0; base < len(bm); base += ckptChunk {
			chunk, k := bm[base:min(base+ckptChunk, len(bm))], 0
			for _, b := range chunk {
				k += bits.OnesCount8(b)
			}
			if h, err = d.read(8 * k); err != nil {
				return nil, err
			}
			k = 0
			for i, b := range chunk {
				for ; b != 0; b &= b - 1 {
					x := binary.LittleEndian.Uint64(h[k:])
					if x == 0 {
						return nil, d.format("a stored word is zero")
					}
					out[8*(base+i)+bits.TrailingZeros8(b)], k = math.Float64frombits(x), k+8
				}
			}
		}
		sum := d.crc
		if h, err = d.read(4); err != nil {
			return nil, err
		}
		if got := binary.LittleEndian.Uint32(h); got != sum {
			return nil, fmt.Errorf("%w: %s: stored CRC-32C %08x, computed %08x", ErrCheckpointCorrupt, d.where, got, sum)
		}
		s.build(dims, out)
	}
	d.where = "end of file"
	if _, err = d.read(1); err == nil {
		return nil, d.format("trailing bytes")
	} else if !errors.Is(err, ErrCheckpointFormat) {
		return nil, err
	}
	return c, nil
}
