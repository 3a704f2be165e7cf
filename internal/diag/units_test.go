package diag

import (
	"reflect"
	"testing"

	"foam/internal/atmos"
	"foam/internal/ocean"
)

// TestDiagUnitsMatchAnnotations ties the Units table to the diagnostics
// structs it labels: every field of ocean.Diagnostics and
// atmos.StepDiagnostics has an entry, and every entry names such a field,
// so a printed column header never goes without its unit.
func TestDiagUnitsMatchAnnotations(t *testing.T) {
	fields := make(map[string]bool)
	for _, v := range []any{ocean.Diagnostics{}, atmos.StepDiagnostics{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if fields[name] {
				t.Errorf("diagnostic name %s is a field of two structs; Units cannot tell them apart", name)
			}
			fields[name] = true
			if _, ok := Units[name]; !ok {
				t.Errorf("%s.%s has no entry in Units", typ.Name(), name)
			}
		}
	}
	for name := range Units {
		if !fields[name] {
			t.Errorf("Units[%q] names no field of ocean.Diagnostics or atmos.StepDiagnostics", name)
		}
	}
}
