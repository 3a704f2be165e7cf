package core

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint decoder.
// Restart chains read files that a killed run truncated or a disk
// corrupted, and foam-serve reads checkpoints from request bodies, so the
// decoder must answer every input with a checkpoint or one of its two typed
// errors — never a panic — and whatever it accepts must be the one encoding
// of the state it returns.
func FuzzLoadCheckpoint(f *testing.F) {
	w := encodeMini(f)
	valid := w.Bytes()
	f.Add(valid)
	for _, end := range w.ends[:len(w.ends)-1] {
		f.Add(valid[:end]) // truncated at each section boundary
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(flipped)
	f.Add(hugeClaim(f))
	f.Add(readTestdata(f, "pre-v1.gob.ckpt"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if c != nil {
				t.Fatalf("LoadCheckpoint returned both a checkpoint and error %v", err)
			}
			if !errors.Is(err, ErrCheckpointFormat) && !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("LoadCheckpoint error %v is neither ErrCheckpointFormat nor ErrCheckpointCorrupt", err)
			}
			return
		}
		var again bytes.Buffer
		if err := c.Save(&again); err != nil {
			t.Fatalf("re-encoding an accepted checkpoint: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatal("LoadCheckpoint accepted bytes that are not the encoding of what it returned")
		}
	})
}
