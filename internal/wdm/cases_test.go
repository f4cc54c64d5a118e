package wdm_test

import (
	"context"
	"testing"

	"operon"
	"operon/internal/benchgen"
	"operon/internal/wdm"
)

// TestAssignMatchesMonolithicOnBenchmarks runs the differential oracle on
// the optical connection sets the LR flow produces for I1–I5.
func TestAssignMatchesMonolithicOnBenchmarks(t *testing.T) {
	for _, name := range []string{"I1", "I2", "I3", "I4", "I5"} {
		t.Run(name, func(t *testing.T) {
			spec, err := benchgen.SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := benchgen.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := operon.DefaultConfig()
			res, err := operon.RunContextWith(context.Background(), d, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Connections) == 0 {
				t.Fatal("no optical connections")
			}
			wcfg := wdm.Config{
				Capacity:        cfg.Lib.WDMCapacity,
				MinSpacingCM:    cfg.Lib.CrosstalkMinDistCM,
				MaxAssignDistCM: cfg.Lib.AssignMaxDistCM,
			}
			wdm.CheckMatchesOracle(t, res.Connections, res.Placement, wcfg)
		})
	}
}
