package foam

import (
	"fmt"

	"foam/internal/scenario"
)

// ScenarioNames lists the named scenarios of the registry — the model
// hierarchy from the paper's full coupled FOAM down to aquaplanet and
// slab-ocean idealizations (internal/scenario, DESIGN.md section 17).
func ScenarioNames() []string { return scenario.Names() }

// ScenarioConfig compiles a named registry scenario into a Config. It is
// the way to pick a model from the hierarchy: "paper-foam" is the paper's
// configuration (an R15 48x40x18 atmosphere on a 30-minute step, radiation
// twice and a 128x128x16 Mercator ocean four times per simulated day) and
// "r5-quick" the much cheaper R5 + 48x48x8 rung with the same multi-rate
// coupled structure, used by tests, examples and long variability runs.
//
//	cfg, err := foam.ScenarioConfig("aquaplanet")
//	m, err := foam.New(cfg)
func ScenarioConfig(name string) (Config, error) {
	sp, ok := scenario.Lookup(name)
	if !ok {
		return Config{}, fmt.Errorf("foam: unknown scenario %q (have %v)", name, scenario.Names())
	}
	return scenario.Build(sp)
}
