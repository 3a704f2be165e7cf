package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"foam/internal/ocean"
	"foam/internal/spectral"
	"foam/internal/sphere"
)

// worldTablesPinned holds the SHA-256 of every grid-level product a World
// derives — ocean KMT on the ocean grid; land mask, soil types and river
// directions on the atmosphere grid — for every registered world on the r5
// rung (R5 atmosphere, 48x48x8 ocean) and the paper rung (R15, 128x128x16).
// Recorded on the tree before OceanKMT read its neighbours from a land mask
// (commit 24fa884); a table that moves changes every member's bathymetry.
var worldTablesPinned = map[string]string{
	"aquaplanet/r5":    "e31383f8ac0cdeaa6f0e37855e45616bfa4e1ab15ea3859e30de2b293a8f4d10",
	"aquaplanet/paper": "87bc793f6617f2a3bf04430cc330cb3d67e4941593fd21b56f173821c835aec9",
	"earth/r5":         "93659561bff5d1d6fba33f46a81f1c64d804c5c5ce89a017ab6de08973daedc8",
	"earth/paper":      "d4c111c2c4e44516877b7165288f6f79739807a0b7fc82f937573fa01355900f",
	"ice-world/r5":     "6be2f7ee3643224df24aebe8b78b98a3c816bed0278b6afe5651a943e44a9f3d",
	"ice-world/paper":  "e9ad1d4cdad97fa30b14fe423b43fff6a329b35084cc9977a3c1dfeefb2ca408",
	"paleo/r5":         "c79c23e89b10236b4781c3927fdd3a7ca1da5128d203b3fcb800e99c146b7898",
	"paleo/paper":      "006f792594f581ffedba4b111a38bf3b536a9d79c9fb406a38d8ef9047397096",
}

func TestWorldTablesPinned(t *testing.T) {
	oc := ocean.DefaultConfig()
	rungs := []struct {
		name                      string
		trunc                     spectral.Truncation
		ocnNLat, ocnNLon, ocnNLev int
	}{
		{"r5", spectral.Rhomboidal(5), 48, 48, 8},
		{"paper", spectral.R15, 128, 128, 16},
	}
	for _, name := range WorldNames() {
		w, err := WorldByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rungs {
			nlat, nlon := r.trunc.GridFor()
			ag := sphere.NewGaussianGrid(nlat, nlon)
			og := sphere.NewMercatorGrid(r.ocnNLat, r.ocnNLon, oc.LatSouth, oc.LatNorth)

			h := sha256.New()
			var b [8]byte
			putInts := func(v []int) {
				for _, x := range v {
					binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
					h.Write(b[:])
				}
			}
			putInts(w.OceanKMT(og, r.ocnNLev))
			for _, land := range w.LandMask(ag) {
				if land {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			putInts(w.SoilTypes(ag))
			putInts(w.BuildRivers(ag).Dir)

			key := name + "/" + r.name
			want, ok := worldTablesPinned[key]
			if !ok {
				t.Errorf("%s: no pinned hash; a new world needs a row in worldTablesPinned", key)
				continue
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s: tables hash %s, pinned %s", key, got, want)
			}
		}
	}
}
