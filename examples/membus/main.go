// Membus models the paper's motivating workload: wide performance-critical
// buses between processor tiles and memory interfaces ("the
// performance-critical signal bits are bound together for data
// communication between logic cells and memory interfaces", §2.3).
//
// Four CPU tiles in the die centre each read and write two 64-bit buses to
// memory controllers at the die edges. The example builds the design
// directly with the signal API (no generator) and shows how the flow
// splits the 64-bit bundles into capacity-respecting hyper nets, routes
// the long runs optically and keeps the short ones electrical.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	operon "operon"
	"operon/internal/geom"
	"operon/internal/signal"
)

func main() {
	log.SetFlags(0)

	design := buildDesign()
	cfg := operon.DefaultConfig()

	res, err := operon.RunContextWith(context.Background(), design, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Mode = operon.ModeOptical
	glow, err := operon.RunContextWith(context.Background(), design, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}

	st := res.Stats()
	fmt.Printf("memory-bus design: %d bits in %d buses\n", design.NetCount(), len(design.Groups))
	fmt.Printf("  hyper nets %d (WDM capacity %d), hyper pins %d\n",
		st.HyperNets, cfg.Lib.WDMCapacity, st.HyperPins)

	optical, electrical, mixed := 0, 0, 0
	for i, j := range res.Selection.Choice {
		c := res.Nets[i].Cands[j]
		switch {
		case c.AllElectrical:
			electrical++
		case len(c.ElecSegs) == 0:
			optical++
		default:
			mixed++
		}
	}
	fmt.Printf("  route mix: %d fully optical, %d mixed O/E, %d electrical\n",
		optical, mixed, electrical)
	fmt.Printf("  OPERON power %8.2f mW vs optical-only %8.2f mW\n", res.PowerMW, glow.PowerMW)
	fmt.Printf("  WDM waveguides: %d placed -> %d assigned (%.1f%% saved)\n",
		res.WDMStats.InitialWDMs, res.WDMStats.FinalWDMs, 100*res.WDMStats.Reduction())
}

func buildDesign() signal.Design {
	rng := rand.New(rand.NewSource(2024))
	die := geom.Rect{Hi: geom.Point{X: 4, Y: 4}}
	d := signal.Design{Name: "membus", Die: die}

	cpus := []geom.Point{{X: 1.5, Y: 1.5}, {X: 2.5, Y: 1.5}, {X: 1.5, Y: 2.5}, {X: 2.5, Y: 2.5}}
	// Memory controllers sit on the left and right die edges.
	mems := []geom.Point{{X: 0.2, Y: 1.0}, {X: 0.2, Y: 3.0}, {X: 3.8, Y: 1.0}, {X: 3.8, Y: 3.0}}

	jitter := func(p geom.Point) geom.Point {
		return geom.Point{X: p.X + rng.Float64()*0.03, Y: p.Y + rng.Float64()*0.03}
	}
	bus := func(name string, from, to geom.Point, bits int) signal.Group {
		g := signal.Group{Name: name}
		for b := 0; b < bits; b++ {
			g.Bits = append(g.Bits, signal.Bit{
				Driver: jitter(from),
				Sinks:  []geom.Point{jitter(to)},
			})
		}
		return g
	}

	for ci, cpu := range cpus {
		mem := mems[ci] // each tile pairs with the nearest edge controller
		d.Groups = append(d.Groups,
			bus(fmt.Sprintf("cpu%d_rd", ci), mem, cpu, 64), // read data: mem -> cpu
			bus(fmt.Sprintf("cpu%d_wr", ci), cpu, mem, 64), // write data: cpu -> mem
		)
		// A short local control bundle between the tile and its register
		// bank under a millimetre away — below the optical crossover, so
		// the co-design keeps it on copper.
		bank := geom.Point{X: cpu.X + 0.08, Y: cpu.Y + 0.02}
		d.Groups = append(d.Groups, bus(fmt.Sprintf("ctl%d", ci), cpu, bank, 8))
	}
	return d
}
