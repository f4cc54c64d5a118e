package selection

import (
	"context"
	"math"
	"reflect"
	"testing"

	"operon/internal/geom"
)

// Oracles for the crossing-loss table and the interaction sweep, exported
// to the external selection_test package through this test file.

// KernelLossDB is the crossing loss candidate (m,n) inflicts on path p of
// candidate (i,j), counted directly with no box pruning (0 for i == m).
func KernelLossDB(inst *Instance, i, j, m, n, p int) float64 {
	if i == m {
		return 0
	}
	path := inst.Nets[i].Cands[j].Paths[p]
	return inst.Lib.CrossingLossDB(geom.CountCrossings(path.Segs, inst.Nets[m].Cands[n].OpticalSegs))
}

// TableLossDB reads the same loss from the built table; pairs without an
// interaction edge read 0.
func TableLossDB(inst *Instance, i, j, m, n, p int) float64 {
	for e := inst.interStart[i]; e < inst.interStart[i+1]; e++ {
		if inst.interNets[e] == m {
			return inst.cross.at(inst, e, n, i, j)[p]
		}
	}
	return 0
}

// BruteInteractions is the O(nets²·cands) definition of the interaction
// lists: m is listed for i when the union box of i's optical candidates
// overlaps one of m's optical candidate boxes.
func BruteInteractions(inst *Instance) [][]int {
	box := func(i, j int) (geom.Rect, bool) {
		segs := inst.Nets[i].Cands[j].OpticalSegs
		if len(segs) == 0 {
			return geom.Rect{}, false
		}
		r := segs[0].BBox()
		for _, s := range segs[1:] {
			r = r.Union(s.BBox())
		}
		return r, true
	}
	out := make([][]int, len(inst.Nets))
	for i := range inst.Nets {
		var nb geom.Rect
		has := false
		for j := range inst.Nets[i].Cands {
			if r, ok := box(i, j); ok {
				if has {
					nb = nb.Union(r)
				} else {
					nb, has = r, true
				}
			}
		}
		out[i] = []int{}
		for m := range inst.Nets {
			if !has || m == i {
				continue
			}
			for n := range inst.Nets[m].Cands {
				if r, ok := box(m, n); ok && nb.Overlaps(r) {
					out[i] = append(out[i], m)
					break
				}
			}
		}
	}
	return out
}

// CheckCrossTable builds inst's table with the given worker count and
// checks it and the interaction lists against the oracles: every
// (i,j,m,n,p) must match the kernel bit for bit, and the sweep must give
// the brute-force lists. It returns the number of non-zero slots.
func CheckCrossTable(t *testing.T, inst *Instance, workers int) (nonzero int) {
	t.Helper()
	want := BruteInteractions(inst)
	for i := range inst.Nets {
		if got := append([]int{}, inst.InteractingNets(i)...); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("net %d: sweep interactions %v, brute force %v", i, got, want[i])
		}
	}
	if _, err := inst.crossTable(context.Background(), workers, nil); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range inst.Nets {
		for j, c := range inst.Nets[i].Cands {
			for m := range inst.Nets {
				for n := range inst.Nets[m].Cands {
					for p := range c.Paths {
						got, want := TableLossDB(inst, i, j, m, n, p), KernelLossDB(inst, i, j, m, n, p)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("loss (%d,%d)<-(%d,%d) path %d: table %v, kernel %v", i, j, m, n, p, got, want)
						}
						checked++
						if got != 0 {
							nonzero++
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no path slots checked")
	}
	return nonzero
}
