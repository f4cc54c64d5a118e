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
	"sync"

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
	// crossCache memoises per-path crossing loss between candidate pairs.
	// Guarded by crossMu: the LR pricing step queries it from many workers.
	// Values are pure functions of the instance, so a racing recompute
	// stores the same slice contents either way.
	crossMu    sync.RWMutex
	crossCache map[pairKey][]float64
	// crossSlab is the current slab block cached values are sub-sliced from
	// (guarded by crossMu); handing out slab regions instead of one heap
	// allocation per cache entry keeps the miss path to ~1 allocation per
	// 4096 path slots.
	crossSlab []float64
	crossOff  int
	// interactions[i] lists the nets whose candidate boxes overlap net i's;
	// precomputed in NewInstance so concurrent readers need no locking.
	interactions [][]int
	// pathOff[i][j] is the offset of candidate (i,j)'s paths in any flat
	// per-path vector of length numPaths (the LR multiplier layout).
	pathOff  [][]int
	numPaths int
	// evalExtra is scratch for evaluateInto (the sequential evaluate/repair
	// path); Evaluate stays pure and allocates its own.
	evalExtra []float64
}

type pairKey struct{ i, j, m, n int }

// NewInstance validates the nets and prepares interaction bookkeeping.
func NewInstance(nets []Net, lib optics.Library) (*Instance, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("selection: no nets")
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	inst := &Instance{
		Nets:       nets,
		Lib:        lib,
		crossCache: make(map[pairKey][]float64),
	}
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
	inst.precomputeInteractions()
	return inst, nil
}

// precomputeInteractions fills interactions[i] for every net: the §3.3
// bounding-box pruning that drops crossing terms between non-overlapping
// hyper nets. Doing it eagerly keeps InteractingNets a lock-free read for
// the parallel pricing step.
func (inst *Instance) precomputeInteractions() {
	n := len(inst.Nets)
	netBox := make([]geom.Rect, n)
	netHas := make([]bool, n)
	for i := range inst.Nets {
		for j := range inst.Nets[i].Cands {
			if inst.hasOpt[i][j] {
				if !netHas[i] {
					netBox[i] = inst.candBox[i][j]
					netHas[i] = true
				} else {
					netBox[i] = netBox[i].Union(inst.candBox[i][j])
				}
			}
		}
	}
	inst.interactions = make([][]int, n)
	for i := 0; i < n; i++ {
		out := []int{}
		if netHas[i] {
			for m := 0; m < n; m++ {
				if m == i {
					continue
				}
				for j := range inst.Nets[m].Cands {
					if inst.hasOpt[m][j] && netBox[i].Overlaps(inst.candBox[m][j]) {
						out = append(out, m)
						break
					}
				}
			}
		}
		inst.interactions[i] = out
	}
}

// CrossLossDB returns, for each path of candidate (i,j), the crossing loss
// in dB inflicted by candidate (m,n)'s waveguides. Results are memoised;
// the cache is safe for concurrent use.
func (inst *Instance) CrossLossDB(i, j, m, n int) []float64 {
	key := pairKey{i, j, m, n}
	inst.crossMu.RLock()
	v, ok := inst.crossCache[key]
	inst.crossMu.RUnlock()
	if ok {
		return v
	}
	ci := inst.Nets[i].Cands[j]
	inst.crossMu.Lock()
	out := inst.slabAlloc(len(ci.Paths))
	inst.crossMu.Unlock()
	if i != m && inst.hasOpt[i][j] && inst.hasOpt[m][n] &&
		inst.candBox[i][j].Overlaps(inst.candBox[m][n]) {
		other := inst.Nets[m].Cands[n].OpticalSegs
		for p, path := range ci.Paths {
			crossings := geom.CountCrossings(path.Segs, other)
			out[p] = inst.Lib.CrossingLossDB(crossings)
		}
	}
	inst.crossMu.Lock()
	inst.crossCache[key] = out
	inst.crossMu.Unlock()
	return out
}

// SeedCrossCache copies the crossing-loss memo of a previous instance into
// inst for every cached pair whose two nets both survive into the new
// instance. newToPrev[i] gives the previous index of new net i, or -1 when
// the net is new or rebuilt; mapped nets must carry candidate lists reused
// verbatim from the previous solve (same geometry, same order), which the
// bit-identity of the memoised values depends on. Value slices are shared,
// not copied — they are write-once. Returns the number of entries seeded;
// zero (and no seeding) when the libraries differ.
func (inst *Instance) SeedCrossCache(prev *Instance, newToPrev []int) int {
	if prev == nil || inst.Lib != prev.Lib || len(newToPrev) != len(inst.Nets) {
		return 0
	}
	prevToNew := make([]int, len(prev.Nets))
	for i := range prevToNew {
		prevToNew[i] = -1
	}
	for i, pi := range newToPrev {
		if pi >= 0 && pi < len(prev.Nets) {
			prevToNew[pi] = i
		}
	}
	prev.crossMu.RLock()
	defer prev.crossMu.RUnlock()
	inst.crossMu.Lock()
	defer inst.crossMu.Unlock()
	seeded := 0
	for k, v := range prev.crossCache {
		if k.i >= len(prevToNew) || k.m >= len(prevToNew) {
			continue
		}
		ni, nm := prevToNew[k.i], prevToNew[k.m]
		if ni < 0 || nm < 0 {
			continue
		}
		// Defensive bounds: a mapped net must still own the cached candidate
		// indices, and the path count must match the cached vector.
		if k.j >= len(inst.Nets[ni].Cands) || k.n >= len(inst.Nets[nm].Cands) {
			continue
		}
		if len(v) != len(inst.Nets[ni].Cands[k.j].Paths) {
			continue
		}
		inst.crossCache[pairKey{ni, k.j, nm, k.n}] = v
		seeded++
	}
	return seeded
}

// slabAlloc carves a zeroed n-slot region out of the crossing-loss slab,
// starting a fresh block when the current one is exhausted. Callers must
// hold crossMu. Regions are handed out once and never recycled, so a fresh
// block's zeroing is all the initialisation they need.
func (inst *Instance) slabAlloc(n int) []float64 {
	if n == 0 {
		return nil
	}
	if len(inst.crossSlab)-inst.crossOff < n {
		size := 4096
		if n > size {
			size = n
		}
		inst.crossSlab = make([]float64, size)
		inst.crossOff = 0
	}
	s := inst.crossSlab[inst.crossOff : inst.crossOff+n : inst.crossOff+n]
	inst.crossOff += n
	return s
}

// InteractingNets returns, for net i, the other nets whose candidate
// bounding boxes overlap any of net i's — the §3.3 speed-up that drops
// crossing variables between non-overlapping hyper nets. The lists are
// precomputed, so this is a lock-free read.
func (inst *Instance) InteractingNets(i int) []int {
	return inst.interactions[i]
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

// Evaluate computes the exact power and loss legality of a choice vector.
// It reuses instance-owned scratch, so like Repair it must not be called
// from concurrent goroutines (the parallel pricing step only reads
// CrossLossDB, which stays safe for concurrent use).
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
			lx := inst.CrossLossDB(i, j, m, choice[m])
			for p := range extra {
				extra[p] += lx[p]
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
					loss += inst.CrossLossDB(i, j, m, cur.Choice[m])[p]
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
