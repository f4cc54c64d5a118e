package operon_test

import (
	"context"
	"fmt"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/geom"
	"operon/internal/signal"
)

// ExampleRunContextWith routes a hand-built two-bus design and reports deterministic
// structural facts about the solution.
func ExampleRunContextWith() {
	design := signal.Design{
		Name: "example",
		Die:  geom.Rect{Hi: geom.Point{X: 4, Y: 4}},
	}
	// A 16-bit global bus (optical territory) and a 4-bit local bundle
	// (electrical territory).
	bus := func(name string, from, to geom.Point, bits int) signal.Group {
		g := signal.Group{Name: name}
		for b := 0; b < bits; b++ {
			off := float64(b) * 0.001
			g.Bits = append(g.Bits, signal.Bit{
				Driver: geom.Point{X: from.X + off, Y: from.Y},
				Sinks:  []geom.Point{{X: to.X + off, Y: to.Y}},
			})
		}
		return g
	}
	design.Groups = append(design.Groups,
		bus("global", geom.Point{X: 0.5, Y: 2}, geom.Point{X: 3.5, Y: 2}, 16),
		bus("local", geom.Point{X: 1, Y: 1}, geom.Point{X: 1.05, Y: 1}, 4),
	)

	res, err := operon.RunContextWith(context.Background(), design, operon.DefaultConfig(), nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	optical := 0
	for i, j := range res.Selection.Choice {
		if !res.Nets[i].Cands[j].AllElectrical {
			optical++
		}
	}
	fmt.Printf("hyper nets: %d\n", len(res.Nets))
	fmt.Printf("optical routes: %d\n", optical)
	fmt.Printf("violations: %d\n", res.Selection.Violations)
	fmt.Printf("drc issues: %d\n", len(operon.Verify(res, operon.DefaultConfig())))
	// Output:
	// hyper nets: 2
	// optical routes: 1
	// violations: 0
	// drc issues: 0
}

// ExampleRunContextWith_baselines contrasts the published baselines, which
// run as their own modes, on a built-in benchmark.
func ExampleRunContextWith_baselines() {
	spec, _ := benchgen.SpecByName("I3")
	design, _ := benchgen.Generate(spec)
	cfg := operon.DefaultConfig()
	cfg.Mode = operon.ModeElectrical
	elec, err := operon.RunContextWith(context.Background(), design, cfg, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg.Mode = operon.ModeOptical
	glow, err := operon.RunContextWith(context.Background(), design, cfg, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("electrical costs more than optical: %v\n", elec.PowerMW > 2*glow.PowerMW)
	// Output:
	// electrical costs more than optical: true
}
