// Tradeoff sweeps the two knobs that decide where optical beats electrical
// interconnect: the detection budget l_m (which bounds how far and how
// often light can split before a detector stops seeing it) and the
// electrical unit capacitance (which scales wire power). For every setting
// it reports the OPERON power and the fraction of hyper nets routed
// optically — making the crossover the paper's introduction argues about
// directly visible.
package main

import (
	"context"
	"fmt"
	"log"

	operon "operon"
	"operon/internal/benchgen"
)

func main() {
	log.SetFlags(0)

	design, err := benchgen.Generate(benchgen.Spec{
		Name:            "tradeoff",
		DieCM:           4,
		Groups:          80,
		BitsPerGroup:    6,
		BitsJitter:      2,
		MinSinkClusters: 1,
		MaxSinkClusters: 2,
		LocalFraction:   0.25,
		LocalSpanCM:     0.2,
		GlobalSpanCM:    1.1,
		RegionSpreadCM:  0.02,
		LanePitchCM:     0.2,
		Seed:            99,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("sweep 1: detection budget l_m (dB) at default electrical cost")
	fmt.Printf("  %6s %12s %14s %12s\n", "l_m", "power (mW)", "optical nets", "violations")
	for _, lm := range []float64{4, 8, 12, 16, 20, 28} {
		cfg := operon.DefaultConfig()
		cfg.Lib.MaxLossDB = lm
		res, err := operon.RunContextWith(context.Background(), design, cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %6.0f %12.2f %13.1f%% %12d\n",
			lm, res.PowerMW, 100*opticalFraction(res), res.Selection.Violations)
	}

	fmt.Println()
	fmt.Println("sweep 2: electrical unit capacitance (pF/cm) at default l_m")
	fmt.Printf("  %6s %12s %14s\n", "cap", "power (mW)", "optical nets")
	for _, cap := range []float64{1, 2, 4, 9, 16, 32} {
		cfg := operon.DefaultConfig()
		cfg.Elec.UnitCapPFPerCM = cap
		res, err := operon.RunContextWith(context.Background(), design, cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %6.0f %12.2f %13.1f%%\n",
			cap, res.PowerMW, 100*opticalFraction(res))
	}
	fmt.Println()
	fmt.Println("reading: a tighter loss budget or cheaper copper pushes routes")
	fmt.Println("electrical; a looser budget or costlier copper pushes them optical.")
}

// opticalFraction returns the share of hyper nets whose chosen route uses
// any optical segment.
func opticalFraction(res *operon.Result) float64 {
	if len(res.Selection.Choice) == 0 {
		return 0
	}
	n := 0
	for i, j := range res.Selection.Choice {
		if !res.Nets[i].Cands[j].AllElectrical {
			n++
		}
	}
	return float64(n) / float64(len(res.Selection.Choice))
}
