package diag

import "fmt"

// Units maps diagnostic quantity names — the field names of
// ocean.Diagnostics and atmos.StepDiagnostics — to the unit each quantity
// is reported in, the same unit the field's own comment states.
// TestDiagUnitsMatchAnnotations fails if a field of either struct has no
// entry here or an entry names no field.
var Units = map[string]string{
	// ocean.Diagnostics
	"MeanSST":   "degC",
	"MeanEta":   "m",
	"MaxSpeed":  "m/s",
	"MeanKE":    "m^2/s^2",
	"IceFlux":   "kg/m^2/s",
	"TotalHeat": "degC*m^3",
	"TotalSalt": "psu*m^3",
	// atmos.StepDiagnostics
	"MeanPs":      "Pa",
	"MeanT":       "K",
	"MaxWind":     "m/s",
	"PrecipMean":  "kg/m^2/s",
	"EvapMean":    "kg/m^2/s",
	"KineticMean": "m^2/s^2",
}

// Unit returns the unit string of a diagnostic quantity, or "" when the
// quantity is dimensionless or unknown.
func Unit(name string) string { return Units[name] }

// ColumnLabel renders a diagnostic column header as "name [unit]", or the
// bare name for dimensionless quantities.
func ColumnLabel(name string) string {
	if u := Units[name]; u != "" {
		return fmt.Sprintf("%s [%s]", name, u)
	}
	return name
}

// ColumnHeaders maps quantity names through ColumnLabel, for CSVTable and
// friends.
func ColumnHeaders(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = ColumnLabel(n)
	}
	return out
}
