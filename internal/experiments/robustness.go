package experiments

import (
	"context"
	"fmt"
	"strings"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/optics"
)

// RobustnessRow reports the flow's behaviour when routed for a given
// temperature guard band: the optical library is derated by ΔT before
// routing, so every chosen route stays legal across the whole band.
type RobustnessRow struct {
	DeltaC          float64
	PowerMW         float64
	OpticalFraction float64
	Violations      int
}

// Robustness sweeps temperature guard bands on one case (extension study:
// the variation-resilience concern of refs [4, 6]). Larger bands shrink the
// usable loss budget, pushing marginal nets back to electrical wires and
// raising power — the resilience-vs-power trade.
func Robustness(caseName string, deltas []float64) ([]RobustnessRow, error) {
	if caseName == "" {
		caseName = "I2"
	}
	if len(deltas) == 0 {
		deltas = []float64{0, 20, 40, 60, 80}
	}
	spec, err := benchgen.SpecByName(caseName)
	if err != nil {
		return nil, err
	}
	design, err := benchgen.Generate(spec)
	if err != nil {
		return nil, err
	}
	v := optics.DefaultVariation()
	var rows []RobustnessRow
	for _, dT := range deltas {
		cfg := operon.DefaultConfig()
		cfg.Lib = cfg.Lib.AtTemperature(v, dT)
		cfg.SkipWDM = true
		res, err := operon.RunContextWith(context.Background(), design, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("robustness ΔT=%v on %s: %w", dT, caseName, err)
		}
		optical := 0
		for i, j := range res.Selection.Choice {
			if !res.Nets[i].Cands[j].AllElectrical {
				optical++
			}
		}
		rows = append(rows, RobustnessRow{
			DeltaC:          dT,
			PowerMW:         res.PowerMW,
			OpticalFraction: float64(optical) / float64(len(res.Nets)),
			Violations:      res.Selection.Violations,
		})
	}
	return rows, nil
}

// FormatRobustness renders the guard-band sweep.
func FormatRobustness(caseName string, rows []RobustnessRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness (extension): temperature guard band on %s\n", caseName)
	fmt.Fprintf(&b, "  %8s %12s %14s %11s\n", "ΔT (°C)", "power (mW)", "optical nets", "violations")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %8.0f %12.2f %13.1f%% %11d\n",
			r.DeltaC, r.PowerMW, 100*r.OpticalFraction, r.Violations)
	}
	b.WriteString("  guard-banding the optical library (higher α, smaller l_m) keeps\n" +
		"  routes legal across the band at the cost of power — marginal nets\n" +
		"  return to copper as the band widens.\n")
	return b.String()
}
