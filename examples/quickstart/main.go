// Quickstart: generate a small synthetic design, run the OPERON flow with
// defaults, and print the power summary next to the two published
// baselines.
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

	// A small design: 24 signal groups of ~8 bits on a 4 cm die, mixing
	// local and global bundles.
	design, err := benchgen.Generate(benchgen.Spec{
		Name:            "quickstart",
		DieCM:           4,
		Groups:          24,
		BitsPerGroup:    8,
		BitsJitter:      2,
		MinSinkClusters: 1,
		MaxSinkClusters: 2,
		LocalFraction:   0.25,
		LocalSpanCM:     0.2,
		GlobalSpanCM:    1.2,
		RegionSpreadCM:  0.02,
		LanePitchCM:     0.2,
		Seed:            42,
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := operon.DefaultConfig()
	ctx := context.Background()

	// The two baselines are the same flow under their own modes.
	ecfg, ocfg := cfg, cfg
	ecfg.Mode, ocfg.Mode = operon.ModeElectrical, operon.ModeOptical
	elec, err := operon.RunContextWith(ctx, design, ecfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	glow, err := operon.RunContextWith(ctx, design, ocfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := operon.RunContextWith(ctx, design, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("design %q: %d bits in %d groups -> %d hyper nets\n",
		design.Name, design.NetCount(), len(design.Groups), res.Stats().HyperNets)
	fmt.Printf("  all-electrical power: %8.2f mW\n", elec.PowerMW)
	fmt.Printf("  all-optical power   : %8.2f mW\n", glow.PowerMW)
	fmt.Printf("  OPERON co-design    : %8.2f mW (%.1f%% below optical-only)\n",
		res.PowerMW, 100*(1-res.PowerMW/glow.PowerMW))
	fmt.Printf("  WDM waveguides      : %d placed, %d after assignment\n",
		res.WDMStats.InitialWDMs, res.WDMStats.FinalWDMs)
}
