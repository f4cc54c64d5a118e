// Package selection implements OPERON's solution-determination stage: given
// the per-hyper-net candidate sets produced by internal/codesign, it picks
// exactly one candidate per hyper net so that total power is minimised and
// every optical detection path meets the loss budget, accounting for the
// crossing loss selected candidates inflict on each other.
//
// Two solvers are provided, mirroring the paper: SolveILP builds the exact
// quadratic 0-1 programme of §3.3 (linearised exactly) and solves it by
// branch and bound; SolveLR runs the Lagrangian-relaxation iteration of
// §3.4, trading a little quality for orders of magnitude less runtime.
package selection

import (
	"fmt"
	"math"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/optics"
)

// Net is one hyper net with its candidate solutions. The last candidate is
// expected to be the pure-electrical fallback a_ie (as produced by
// codesign.Generate), guaranteeing feasibility.
type Net struct {
	// Bits is the net's bit width (drives conversion power and WDM shares).
	Bits int
	// Cands lists the candidate implementations to choose from.
	Cands []codesign.Candidate
}

// ElectricalIndex returns the index of the electrical fallback candidate,
// or -1 if the net has none.
func (n Net) ElectricalIndex() int {
	for j := len(n.Cands) - 1; j >= 0; j-- {
		if n.Cands[j].AllElectrical {
			return j
		}
	}
	return -1
}

// Instance is a complete selection problem.
type Instance struct {
	// Nets is the hyper nets with their candidate lists.
	Nets []Net
	// Lib is the optical library supplying the loss budget and crossing loss.
	Lib optics.Library

	// candBox[i][j] is the bounding box of candidate (i,j)'s optical
	// segments; hasOpt[i][j] reports whether it has any.
	candBox [][]geom.Rect
	hasOpt  [][]bool
	// interNets[interStart[i]:interStart[i+1]] lists, ascending, the nets
	// whose candidate boxes overlap net i's (see buildInteractions). The
	// position of an entry in interNets is the edge index of the pair.
	interStart []int
	interNets  []int
	// pathOff[i][j] is the offset of candidate (i,j)'s paths in any flat
	// per-path vector of length numPaths (the LR multiplier layout).
	pathOff  [][]int
	numPaths int
	// pathBox[pathOff[i][j]+p] is the bounding box of that path's segments.
	pathBox []geom.Rect
	// evalExtra is per-path scratch for Evaluate.
	evalExtra []float64
	// cross is the crossing-loss table of the LR and ILP solvers, built on
	// their first call (see crossTable); nil until then.
	cross *crossTable
}

// NewInstance validates the nets and prepares interaction bookkeeping.
func NewInstance(nets []Net, lib optics.Library) (*Instance, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("selection: no nets")
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	inst := &Instance{Nets: nets, Lib: lib}
	inst.candBox = make([][]geom.Rect, len(nets))
	inst.hasOpt = make([][]bool, len(nets))
	for i, n := range nets {
		if len(n.Cands) == 0 {
			return nil, fmt.Errorf("selection: net %d has no candidates", i)
		}
		if n.ElectricalIndex() < 0 {
			return nil, fmt.Errorf("selection: net %d lacks an electrical fallback", i)
		}
		inst.candBox[i] = make([]geom.Rect, len(n.Cands))
		inst.hasOpt[i] = make([]bool, len(n.Cands))
		for j, c := range n.Cands {
			if len(c.OpticalSegs) == 0 {
				continue
			}
			inst.hasOpt[i][j] = true
			box := c.OpticalSegs[0].BBox()
			for _, s := range c.OpticalSegs[1:] {
				box = box.Union(s.BBox())
			}
			inst.candBox[i][j] = box
		}
	}
	inst.pathOff = make([][]int, len(nets))
	off := 0
	for i, n := range nets {
		inst.pathOff[i] = make([]int, len(n.Cands))
		for j, c := range n.Cands {
			inst.pathOff[i][j] = off
			off += len(c.Paths)
		}
	}
	inst.numPaths = off
	inst.pathBox = make([]geom.Rect, off)
	for i, n := range nets {
		for j, c := range n.Cands {
			for p, path := range c.Paths {
				if len(path.Segs) == 0 {
					continue
				}
				box := path.Segs[0].BBox()
				for _, s := range path.Segs[1:] {
					box = box.Union(s.BBox())
				}
				inst.pathBox[inst.pathOff[i][j]+p] = box
			}
		}
	}
	inst.buildInteractions()
	return inst, nil
}

// InteractingNets returns, for net i, the other nets whose candidate
// bounding boxes overlap any of net i's — the §3.3 speed-up that drops
// crossing variables between non-overlapping hyper nets. The lists are
// precomputed, so this is a lock-free read.
func (inst *Instance) InteractingNets(i int) []int {
	lo, hi := inst.interStart[i], inst.interStart[i+1]
	return inst.interNets[lo:hi:hi]
}

// Selection is a complete assignment of one candidate per net.
type Selection struct {
	// Choice[i] indexes the chosen candidate of net i.
	Choice []int
	// PowerMW is the total power of the chosen candidates.
	PowerMW float64
	// Violations counts detection-constraint violations under exact
	// pairwise crossing loss.
	Violations int
	// MaxViolationDB is the largest amount by which a path exceeds the
	// budget.
	MaxViolationDB float64
}

// Evaluate computes the exact power and loss legality of a choice vector,
// counting the crossings of each interacting chosen pair directly. It
// reuses instance-owned scratch, so like Repair and the solvers it must not
// be called from concurrent goroutines.
func (inst *Instance) Evaluate(choice []int) (Selection, error) {
	if len(choice) != len(inst.Nets) {
		return Selection{}, fmt.Errorf("selection: choice length %d for %d nets",
			len(choice), len(inst.Nets))
	}
	sel := Selection{Choice: append([]int(nil), choice...)}
	for i, j := range choice {
		if j < 0 || j >= len(inst.Nets[i].Cands) {
			return Selection{}, fmt.Errorf("selection: net %d choice %d out of range", i, j)
		}
		sel.PowerMW += inst.Nets[i].Cands[j].PowerMW
	}
	for i, j := range choice {
		cand := inst.Nets[i].Cands[j]
		if len(cand.Paths) == 0 {
			continue
		}
		if cap(inst.evalExtra) < len(cand.Paths) {
			inst.evalExtra = make([]float64, len(cand.Paths))
		}
		extra := inst.evalExtra[:len(cand.Paths)]
		for p := range extra {
			extra[p] = 0
		}
		for _, m := range inst.InteractingNets(i) {
			if !inst.crosses(i, j, m, choice[m]) {
				continue
			}
			for p := range cand.Paths {
				extra[p] += inst.pathCrossDB(i, j, p, m, choice[m])
			}
		}
		for p, path := range cand.Paths {
			loss := path.FixedLossDB + extra[p]
			if !inst.Lib.Detectable(loss) {
				sel.Violations++
				if v := loss - inst.Lib.MaxLossDB; v > sel.MaxViolationDB {
					sel.MaxViolationDB = v
				}
			}
		}
	}
	return sel, nil
}

// Repair demotes nets with violating optical paths to their electrical
// fallback until the selection is legal. It mirrors the paper's observation
// that "the residual nets have to be completed through electrical wires".
func (inst *Instance) Repair(sel Selection) (Selection, error) {
	cur := sel
	for cur.Violations > 0 {
		// Demote the net owning the worst violating path.
		worstNet, worstViol := -1, 0.0
		for i, j := range cur.Choice {
			cand := inst.Nets[i].Cands[j]
			if len(cand.Paths) == 0 {
				continue
			}
			for p, path := range cand.Paths {
				loss := path.FixedLossDB
				for _, m := range inst.InteractingNets(i) {
					if inst.crosses(i, j, m, cur.Choice[m]) {
						loss += inst.pathCrossDB(i, j, p, m, cur.Choice[m])
					}
				}
				if v := loss - inst.Lib.MaxLossDB; v > worstViol {
					worstViol = v
					worstNet = i
				}
			}
		}
		if worstNet < 0 {
			break
		}
		cur.Choice[worstNet] = inst.Nets[worstNet].ElectricalIndex()
		next, err := inst.Evaluate(cur.Choice)
		if err != nil {
			return Selection{}, err
		}
		cur = next
	}
	return cur, nil
}

// GreedyIndependent picks, for every net, its cheapest candidate ignoring
// interactions, then repairs. It seeds the LR iteration and serves as a
// baseline.
func (inst *Instance) GreedyIndependent() (Selection, error) {
	choice := make([]int, len(inst.Nets))
	for i, n := range inst.Nets {
		best, bestP := 0, math.Inf(1)
		for j, c := range n.Cands {
			if c.PowerMW < bestP {
				best, bestP = j, c.PowerMW
			}
		}
		choice[i] = best
	}
	sel, err := inst.Evaluate(choice)
	if err != nil {
		return Selection{}, err
	}
	return inst.Repair(sel)
}

// AllElectrical returns the selection that routes every net electrically.
func (inst *Instance) AllElectrical() (Selection, error) {
	choice := make([]int, len(inst.Nets))
	for i, n := range inst.Nets {
		choice[i] = n.ElectricalIndex()
	}
	return inst.Evaluate(choice)
}
