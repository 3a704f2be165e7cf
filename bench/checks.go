package main

import (
	"fmt"
	"math"
)

// Correctness limits checked on every replay. The current limit is 3.01
// because the ocean's speed limiter yields 3.0000000000000013 m/s.
const (
	sstMinC    = -3.0
	sstMaxC    = 40.0
	maxWindMS  = 150.0
	maxSpeedMS = 3.01
)

// hashFloats folds the bit patterns of v into h (FNV-1a over 64-bit words):
// equal hashes across replays mean bit-identical fields.
func hashFloats(h uint64, v []float64) uint64 {
	if h == 0 {
		h = 0xcbf29ce484222325
	}
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 0x100000001b3
	}
	return h
}

// checkFinite reports the first non-finite value of a field.
func checkFinite(name string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s[%d] is %v", name, i, x)
		}
	}
	return nil
}

// checkSST reports a wet cell whose temperature is non-finite or outside
// [-3, 40] deg C. mask may be nil (every cell wet).
func checkSST(sst, mask []float64) error {
	for i, x := range sst {
		if mask != nil && mask[i] < 0.5 {
			continue
		}
		if math.IsNaN(x) || x < sstMinC || x > sstMaxC {
			return fmt.Errorf("SST[%d] = %v deg C outside [%g, %g]", i, x, sstMinC, sstMaxC)
		}
	}
	return nil
}

// checkBelow reports a diagnostic that is non-finite or not below its limit.
func checkBelow(name string, x, limit float64) error {
	if math.IsNaN(x) || x >= limit {
		return fmt.Errorf("%s = %v, limit %g", name, x, limit)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
