package selection_test

import (
	"context"
	"testing"

	"operon"
	"operon/internal/benchgen"
	"operon/internal/selection"
)

// TestCrossTableMatchesKernelOnBenchmarks checks the crossing-loss table
// and the interaction sweep against their oracles on the candidate sets the
// flow generates for I1–I3: every (i, j, m, n, path) slot, interacting or
// not, bit for bit.
func TestCrossTableMatchesKernelOnBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and checks three benchmark instances")
	}
	for _, name := range []string{"I1", "I2", "I3"} {
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
			cfg.Mode = operon.ModeGreedy
			cfg.SkipWDM = true
			res, err := operon.RunContextWith(context.Background(), d, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := selection.NewInstance(res.Nets, cfg.Lib)
			if err != nil {
				t.Fatal(err)
			}
			if selection.CheckCrossTable(t, inst, 2) == 0 {
				t.Fatal("no crossing on the benchmark; the check is vacuous")
			}
		})
	}
}
