// Nocmesh routes the links of a 4x4 mesh network-on-chip as OPERON signal
// groups — the optical-NoC setting of the related work the paper builds on
// (O-Router, GLOW, PROTON). Each mesh link is a 16-bit bundle between
// neighbouring routers; four long "express" links span the mesh diagonally
// and stress the loss budget.
//
// The example contrasts the three flows and shows which links the
// co-design keeps electrical (the short neighbour hops) and which become
// optical (the express spans).
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

const (
	meshDim   = 4
	linkBits  = 16
	pitchCM   = 0.18 // router pitch: neighbour hops sit below the O/E crossover
	expressBW = 32
)

func main() {
	log.SetFlags(0)

	design := buildMesh()
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

	fmt.Printf("4x4 mesh NoC: %d links, %d bits total\n", len(design.Groups), design.NetCount())
	fmt.Printf("  electrical %8.2f mW | optical %8.2f mW | OPERON %8.2f mW\n",
		elec.PowerMW, glow.PowerMW, res.PowerMW)

	// Per-link routing decision of the co-design.
	short, long := 0, 0
	shortOpt, longOpt := 0, 0
	for i, j := range res.Selection.Choice {
		c := res.Nets[i].Cands[j]
		span := res.HyperNets[i].Terminals()
		dist := span[0].Dist(span[1])
		isLong := dist > 1.5*pitchCM
		if isLong {
			long++
			if !c.AllElectrical {
				longOpt++
			}
		} else {
			short++
			if !c.AllElectrical {
				shortOpt++
			}
		}
	}
	fmt.Printf("  neighbour hops: %d/%d use optics; express links: %d/%d use optics\n",
		shortOpt, short, longOpt, long)
	fmt.Printf("  WDM waveguides: %d placed -> %d assigned\n",
		res.WDMStats.InitialWDMs, res.WDMStats.FinalWDMs)
}

func buildMesh() signal.Design {
	rng := rand.New(rand.NewSource(7))
	extent := pitchCM * float64(meshDim-1)
	margin := 0.3
	die := geom.Rect{Hi: geom.Point{X: extent + 2*margin, Y: extent + 2*margin}}
	d := signal.Design{Name: "nocmesh", Die: die}

	router := func(r, c int) geom.Point {
		return geom.Point{X: margin + float64(c)*pitchCM, Y: margin + float64(r)*pitchCM}
	}
	jitter := func(p geom.Point) geom.Point {
		return geom.Point{X: p.X + rng.Float64()*0.02, Y: p.Y + rng.Float64()*0.02}
	}
	link := func(name string, from, to geom.Point, bits int) signal.Group {
		g := signal.Group{Name: name}
		for b := 0; b < bits; b++ {
			g.Bits = append(g.Bits, signal.Bit{
				Driver: jitter(from),
				Sinks:  []geom.Point{jitter(to)},
			})
		}
		return g
	}

	for r := 0; r < meshDim; r++ {
		for c := 0; c < meshDim; c++ {
			if c+1 < meshDim {
				d.Groups = append(d.Groups, link(
					fmt.Sprintf("h_%d_%d", r, c), router(r, c), router(r, c+1), linkBits))
			}
			if r+1 < meshDim {
				d.Groups = append(d.Groups, link(
					fmt.Sprintf("v_%d_%d", r, c), router(r, c), router(r+1, c), linkBits))
			}
		}
	}
	// Express links across the mesh.
	d.Groups = append(d.Groups,
		link("exp_diag0", router(0, 0), router(meshDim-1, meshDim-1), expressBW),
		link("exp_diag1", router(0, meshDim-1), router(meshDim-1, 0), expressBW),
		link("exp_row", router(1, 0), router(1, meshDim-1), expressBW),
		link("exp_col", router(0, 2), router(meshDim-1, 2), expressBW),
	)
	return d
}
