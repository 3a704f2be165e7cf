package scenario

import (
	"testing"
)

// FuzzScenarioJSON drives the decode→Build→encode round trip with
// arbitrary bytes: malformed specs must come back as errors — never a
// panic — and any spec that decodes and compiles must re-encode to a spec
// that decodes and compiles to the identical config (mirrors the
// checkpoint fuzz target).
func FuzzScenarioJSON(f *testing.F) {
	for _, sp := range All() {
		if b, err := sp.Encode(); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"rung":"r5","ocean":{"mode":"slab","split":false},"deltas":[{"param":"atm.diff4","scale":2}]}`))
	f.Add([]byte(`{"v":1,"world":"aquaplanet","rotation_scale":0.5,"year_days":90}`))
	f.Add([]byte(`{"rung":"r99"}`))
	f.Add([]byte(`{"levels":-3}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Decode(data)
		if err != nil {
			return // malformed input is allowed to error, not to panic
		}
		cfg, err := Build(sp)
		if err != nil {
			return // invalid spec rejected by the gate
		}
		// A spec that compiled must round-trip losslessly.
		b, err := sp.Encode()
		if err != nil {
			t.Fatalf("Encode failed on a buildable spec: %v", err)
		}
		sp2, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode failed on encoded output: %v\n%s", err, b)
		}
		cfg2, err := Build(sp2)
		if err != nil {
			t.Fatalf("Build failed after round trip: %v", err)
		}
		if cfg.TableKey() != cfg2.TableKey() {
			t.Fatalf("round trip changed the table key: %q vs %q", cfg.TableKey(), cfg2.TableKey())
		}
	})
}
