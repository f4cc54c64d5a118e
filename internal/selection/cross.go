package selection

import (
	"context"
	"math"
	"sort"

	"operon/internal/geom"
	"operon/internal/obs"
	"operon/internal/parallel"
)

// The §3.3/§3.4 crossing loss that the candidates of two interacting hyper
// nets inflict on each other's optical paths is read two ways. The LR and
// ILP solvers sweep every interacting candidate pair, so they build a dense
// crossTable once per instance; Evaluate and Repair touch one fixed choice
// per net pair and run the kernel directly (pathCrossDB behind crosses).

// crosses reports whether candidates (i,j) and (m,n) can cross at all: the
// bounding-box pruning applied before every crossing count. When it is
// false the crossing loss between them is exactly zero.
func (inst *Instance) crosses(i, j, m, n int) bool {
	return i != m && inst.hasOpt[i][j] && inst.hasOpt[m][n] &&
		inst.candBox[i][j].Overlaps(inst.candBox[m][n])
}

// pathCrossDB is the crossing loss in dB that candidate (m,n)'s waveguides
// inflict on path p of candidate (i,j), for a pair that crosses. A path
// whose box misses (m,n)'s box has no segment pair that CountCrossings
// would test, so it reads exactly zero without the kernel.
func (inst *Instance) pathCrossDB(i, j, p, m, n int) float64 {
	if !inst.pathBox[inst.pathOff[i][j]+p].Overlaps(inst.candBox[m][n]) {
		return 0
	}
	segs := inst.Nets[i].Cands[j].Paths[p].Segs
	return inst.Lib.CrossingLossDB(geom.CountCrossings(segs, inst.Nets[m].Cands[n].OpticalSegs))
}

// CrossLossDB returns, for each path of candidate (i,j), the crossing loss
// in dB inflicted by candidate (m,n)'s waveguides. It runs the crossing
// kernel on every call; the solvers read the same values from their table.
func (inst *Instance) CrossLossDB(i, j, m, n int) []float64 {
	paths := inst.Nets[i].Cands[j].Paths
	out := make([]float64, len(paths))
	if inst.crosses(i, j, m, n) {
		for p := range paths {
			out[p] = inst.pathCrossDB(i, j, p, m, n)
		}
	}
	return out
}

// netPaths returns the offset of net i's first path in the flat per-path
// layout (pathOff) and the number of paths over all of its candidates.
func (inst *Instance) netPaths(i int) (base, count int) {
	base = inst.pathOff[i][0]
	if i+1 < len(inst.Nets) {
		return base, inst.pathOff[i+1][0] - base
	}
	return base, inst.numPaths - base
}

// crossTable is the dense crossing loss of every interacting candidate
// pair, laid out over the CSR interaction lists: edge e is the pair (i,m)
// with m = interNets[e], and its block loss[off[e]:off[e+1]] holds, for each
// candidate n of m, the loss on every path slot of net i (slot order is the
// pathOff order). Built once and then only read, it needs no locking.
type crossTable struct {
	off  []int
	rev  []int // rev[e]: the edge of (m,i), or -1 when i ∉ interactions[m]
	loss []float64
}

// at returns the losses that candidate n of edge e's net inflicts on the
// paths of candidate (i,j), where i owns e.
func (t *crossTable) at(inst *Instance, e, n, i, j int) []float64 {
	base, np := inst.netPaths(i)
	start := t.off[e] + n*np + inst.pathOff[i][j] - base
	return t.loss[start : start+len(inst.Nets[i].Cands[j].Paths)]
}

// crossTable returns the instance's crossing-loss table, building it on
// first use with up to workers goroutines, one net's blocks per task. A
// cancelled ctx discards the partial build and returns ctx.Err(); the next
// call starts over.
func (inst *Instance) crossTable(ctx context.Context, workers int, tr *obs.Tracer) (*crossTable, error) {
	if inst.cross != nil {
		return inst.cross, nil
	}
	sp := tr.Span("selection/cross", obs.LaneFlow)
	nnz := len(inst.interNets)
	t := &crossTable{off: make([]int, nnz+1), rev: make([]int, nnz)}
	for i := range inst.Nets {
		_, np := inst.netPaths(i)
		for e := inst.interStart[i]; e < inst.interStart[i+1]; e++ {
			m := inst.interNets[e]
			t.off[e+1] = t.off[e] + len(inst.Nets[m].Cands)*np
			t.rev[e] = -1
			back := inst.InteractingNets(m)
			if k := sort.SearchInts(back, i); k < len(back) && back[k] == i {
				t.rev[e] = inst.interStart[m] + k
			}
		}
	}
	t.loss = make([]float64, t.off[nnz])
	err := parallel.ForEachContext(ctx, len(inst.Nets), workers, func(i int) error {
		for e := inst.interStart[i]; e < inst.interStart[i+1]; e++ {
			m := inst.interNets[e]
			for n := range inst.Nets[m].Cands {
				for j := range inst.Nets[i].Cands {
					if !inst.crosses(i, j, m, n) {
						continue
					}
					row := t.at(inst, e, n, i, j)
					for p := range row {
						row[p] = inst.pathCrossDB(i, j, p, m, n)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		sp.End(obs.S("status", "cancelled"))
		return nil, err
	}
	sp.End(obs.I("pairs", nnz), obs.I("slots", len(t.loss)), obs.I("bytes", 8*len(t.loss)))
	inst.cross = t
	return t, nil
}

// buildInteractions fills the CSR interaction lists: net m is listed for
// net i, in ascending order, when the union box of i's optical candidates
// overlaps one of m's optical candidate boxes — the §3.3 pruning that drops
// crossing terms between non-overlapping hyper nets. A uniform grid over
// the candidate boxes restricts the exact Overlaps tests to boxes sharing a
// cell with the net box.
func (inst *Instance) buildInteractions() {
	n := len(inst.Nets)
	netBox := make([]geom.Rect, n)
	netHas := make([]bool, n)
	var boxes []geom.Rect
	var owner []int
	var ext geom.Rect
	var sumSide float64
	for i := range inst.Nets {
		for j := range inst.Nets[i].Cands {
			if !inst.hasOpt[i][j] {
				continue
			}
			b := inst.candBox[i][j]
			if !netHas[i] {
				netBox[i] = b
				netHas[i] = true
			} else {
				netBox[i] = netBox[i].Union(b)
			}
			if len(boxes) == 0 {
				ext = b
			} else {
				ext = ext.Union(b)
			}
			boxes = append(boxes, b)
			owner = append(owner, i)
			sumSide += b.Width() + b.Height()
		}
	}
	inst.interStart = make([]int, n+1)
	inst.interNets = inst.interNets[:0]
	if len(boxes) == 0 {
		return
	}

	// Cells about the mean candidate-box side, at most ~4 per box.
	cell := sumSide / float64(2*len(boxes))
	maxCells := 4 * len(boxes)
	if w, h := ext.Width(), ext.Height(); cell <= 0 || w*h/(cell*cell) > float64(maxCells) {
		cell = math.Sqrt(w * h / float64(maxCells))
	}
	gx, gy := 1, 1
	if cell > 0 {
		gx = min(int(ext.Width()/cell)+1, maxCells)
		gy = min(int(ext.Height()/cell)+1, maxCells)
	}
	cellOf := func(v, lo float64, g int) int {
		if cell <= 0 {
			return 0
		}
		c := int((v - lo) / cell)
		return max(0, min(c, g-1))
	}
	each := func(r geom.Rect, fn func(c int)) {
		x0, x1 := cellOf(r.Lo.X, ext.Lo.X, gx), cellOf(r.Hi.X, ext.Lo.X, gx)
		y0, y1 := cellOf(r.Lo.Y, ext.Lo.Y, gy), cellOf(r.Hi.Y, ext.Lo.Y, gy)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				fn(y*gx + x)
			}
		}
	}
	// Bucket every box, grown by Eps, into the cells it covers (CSR).
	start := make([]int, gx*gy+1)
	for _, r := range boxes {
		each(r.Expand(geom.Eps), func(c int) { start[c+1]++ })
	}
	for c := 0; c < gx*gy; c++ {
		start[c+1] += start[c]
	}
	cells := make([]int, start[gx*gy])
	fill := append([]int(nil), start[:gx*gy]...)
	for b, r := range boxes {
		each(r.Expand(geom.Eps), func(c int) {
			cells[fill[c]] = b
			fill[c]++
		})
	}

	seen := make([]int, n) // seen[m] == i+1 once m is listed for net i
	for i := 0; i < n; i++ {
		first := len(inst.interNets)
		if netHas[i] {
			each(netBox[i], func(c int) {
				for _, b := range cells[start[c]:start[c+1]] {
					m := owner[b]
					if m == i || seen[m] == i+1 || !netBox[i].Overlaps(boxes[b]) {
						continue
					}
					seen[m] = i + 1
					inst.interNets = append(inst.interNets, m)
				}
			})
			sort.Ints(inst.interNets[first:])
		}
		inst.interStart[i+1] = len(inst.interNets)
	}
}
