package core_test

import (
	"fmt"
	"foam/internal/core"
	"testing"
)

// TestExecutorEquivalenceMatrix: the same compiled program run serially and
// on the worker pool must end in bit-identical state, for both the
// synchronous (lag 0) and the paper's lagged (lag 1) coupling schedule.
func TestExecutorEquivalenceMatrix(t *testing.T) {
	days := 7.0
	if testing.Short() {
		days = 1.0
	}

	for _, lag := range []int{0, 1} {
		t.Run(fmt.Sprintf("lag%d", lag), func(t *testing.T) {
			cfg := scenarioConfig(t, "r5-quick")
			cfg.OceanLag = lag

			// Reference: the serial executor.
			serial := cfg
			serial.Workers = 1
			m, err := core.New(serial)
			if err != nil {
				t.Fatal(err)
			}
			m.StepDays(days)
			ref := m.Checkpoint()
			m.Close()

			// Pooled executor with a worker count that does not divide
			// the grids evenly.
			t.Run("pooled3", func(t *testing.T) {
				pc := cfg
				pc.Workers = 3
				pm, err := core.New(pc)
				if err != nil {
					t.Fatal(err)
				}
				defer pm.Close()
				pm.StepDays(days)
				compareCheckpoints(t, 3, ref, pm.Checkpoint())
			})
		})
	}
}
