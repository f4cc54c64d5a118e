package selection

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/optics"
	"operon/internal/power"
	"operon/internal/steiner"
)

// randomInstance mixes co-designed candidate sets (real multi-path
// candidates from the DP) with straight horizontal and vertical guides,
// some far away and some of zero extent, on a small die so that many pairs
// interact and many do not.
func randomInstance(t *testing.T, seed int64, nets int) *Instance {
	t.Helper()
	lib := optics.DefaultLibrary()
	elec := power.DefaultElectricalModel()
	rng := rand.New(rand.NewSource(seed))
	var out []Net
	for i := 0; i < nets; i++ {
		loss := lib.MaxLossDB - 2 + rng.Float64()*1.9
		switch i % 4 {
		case 0:
			var terms []geom.Point
			for k := 0; k < 2+rng.Intn(3); k++ {
				terms = append(terms, geom.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3})
			}
			tr := steiner.BI1S(terms, steiner.Euclidean, steiner.BI1SConfig{})
			cands, err := codesign.Generate(codesign.Input{Tree: tr, Bits: 16, Lib: lib, Elec: elec})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, Net{Bits: 16, Cands: cands})
		case 1:
			x0 := rng.Float64() * 3
			out = append(out, twoCandNet(rng.Float64()*3, x0, x0+rng.Float64()*2, 1, loss, 3))
		case 2:
			y0 := rng.Float64() * 3
			out = append(out, crossingNet(rng.Float64()*3, y0, y0+rng.Float64()*2, 1, loss, 3))
		default:
			// A point-sized guide or one far off the die.
			x := rng.Float64() * 3
			if rng.Intn(2) == 0 {
				x += 40
			}
			out = append(out, twoCandNet(1.5, x, x, 1, loss, 3))
		}
	}
	inst, err := NewInstance(out, lib)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestCrossTableMatchesKernelRandom(t *testing.T) {
	nonzero := 0
	for seed := int64(1); seed <= 6; seed++ {
		nonzero += CheckCrossTable(t, randomInstance(t, seed, 10+int(seed)*4), int(seed%3)+1)
	}
	if nonzero == 0 {
		t.Fatal("no crossing in any random instance; the check is vacuous")
	}
}

// TestInteractionSweepMatchesBruteForce drives the grid with box shapes the
// benchmarks rarely produce: degenerate (zero-width or zero-height) boxes,
// boxes touching within Eps, one huge box, and nets without optics.
func TestInteractionSweepMatchesBruteForce(t *testing.T) {
	lib := optics.DefaultLibrary()
	// Three width-2 guides on y = 0 give unit grid cells from x = -2; the
	// second ends d < Eps short of the cell boundary x = 1 where the third
	// starts, so only the Eps growth of the bucketed boxes finds the pair.
	d := math.Ldexp(1, -31)
	boundary := []Net{
		twoCandNet(0, -2, 0, 1, 1, 2),
		twoCandNet(0, -1-d, 1-d, 1, 1, 2),
		twoCandNet(0, 1, 3, 1, 1, 2),
	}
	inst, err := NewInstance(boundary, lib)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.InteractingNets(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("cell-boundary pair: InteractingNets(1) = %v, want [0 2]", got)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		var nets []Net
		for i := 0; i < 5+rng.Intn(40); i++ {
			x, y := rng.Float64()*10, rng.Float64()*10
			switch rng.Intn(5) {
			case 0:
				nets = append(nets, twoCandNet(y, x, x+rng.Float64()*3, 1, 1, 2))
			case 1:
				nets = append(nets, crossingNet(x, y, y+rng.Float64()*3, 1, 1, 2))
			case 2:
				nets = append(nets, twoCandNet(y, x, x, 1, 1, 2)) // a point
			case 3:
				// Touching the previous net's guide end within Eps.
				if len(nets) > 0 && len(nets[len(nets)-1].Cands[0].OpticalSegs) > 0 {
					b := nets[len(nets)-1].Cands[0].OpticalSegs[0].B
					nets = append(nets, twoCandNet(b.Y+geom.Eps/2, b.X+geom.Eps/2, b.X+1, 1, 1, 2))
				} else {
					nets = append(nets, twoCandNet(-5, -5, 15, 1, 1, 2)) // die-wide
				}
			default:
				n := twoCandNet(0, 0, 0, 1, 1, 2)
				n.Cands = n.Cands[1:] // electrical only
				nets = append(nets, n)
			}
		}
		inst, err := NewInstance(nets, lib)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteInteractions(inst)
		for i := range nets {
			if got := append([]int{}, inst.InteractingNets(i)...); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("trial %d net %d: sweep %v, brute force %v", trial, i, got, want[i])
			}
		}
	}
}

// TestCrossTableAsymmetricSkip builds m ∈ interactions[i] with
// i ∉ interactions[m]: net i's two candidates form an L around net m's
// small guide, so i's union box covers m while neither of i's candidate
// boxes reaches m's. The symmetric pricing term skips such pairs; that is
// exact only if every loss i inflicts on m is zero.
func TestCrossTableAsymmetricSkip(t *testing.T) {
	lib := optics.DefaultLibrary()
	l := twoCandNet(0, 0, 2, 1, 1, 3) // horizontal arm along y = 0
	up := crossingNet(0, 0, 2, 1, 1, 3)
	l.Cands = []codesign.Candidate{l.Cands[0], up.Cands[0], l.Cands[1]} // + vertical arm along x = 0
	small := twoCandNet(1, 1, 1.2, 1, 1, 3)
	inst, err := NewInstance([]Net{l, small}, lib)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.InteractingNets(0); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("InteractingNets(0) = %v, want [1]", got)
	}
	if got := inst.InteractingNets(1); len(got) != 0 {
		t.Fatalf("InteractingNets(1) = %v, want empty", got)
	}
	CheckCrossTable(t, inst, 1)
	if inst.cross.rev[0] != -1 {
		t.Fatalf("reverse edge of (0,1) = %d, want -1", inst.cross.rev[0])
	}
	for n, c := range inst.Nets[1].Cands {
		for j := range inst.Nets[0].Cands {
			for p := range c.Paths {
				if v := KernelLossDB(inst, 1, n, 0, j, p); v != 0 {
					t.Errorf("loss (1,%d)<-(0,%d) path %d = %v, want 0", n, j, p, v)
				}
			}
		}
	}
}

// zeroTimes clears the wall-clock fields so results compare structurally.
func zeroTimes(lr *LRResult, ir *ILPResult) {
	if lr != nil {
		lr.Elapsed = 0
	}
	if ir != nil {
		ir.Elapsed, ir.LPTime = 0, 0
	}
}

func TestSolversIdenticalAcrossWorkers(t *testing.T) {
	var lrRef LRResult
	var irRef ILPResult
	for k, w := range []int{1, 2, 8} {
		// A fresh instance per worker count, so each builds its own table.
		lr, err := SolveLR(randomInstance(t, 11, 36), LROptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		ir, err := SolveILP(randomInstance(t, 12, 8), ILPOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		zeroTimes(&lr, &ir)
		if k == 0 {
			lrRef, irRef = lr, ir
			continue
		}
		if !reflect.DeepEqual(lr, lrRef) {
			t.Errorf("Workers=%d: LR result differs from Workers=1", w)
		}
		if !reflect.DeepEqual(ir, irRef) {
			t.Errorf("Workers=%d: ILP result differs from Workers=1", w)
		}
	}
}

// countdownCtx reports cancellation after its first n Err calls, so a
// sequential table build is cut off part-way through, deterministically.
type countdownCtx struct {
	context.Context
	n atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestExpiredCtxLeavesNoTable(t *testing.T) {
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	midBuild := &countdownCtx{Context: context.Background()}
	midBuild.n.Store(3)
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		workers int
	}{
		{"expired/workers1", expired, 1},
		{"expired/workers4", expired, 4},
		{"mid-build/workers1", midBuild, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := randomInstance(t, 5, 24)
			lr, err := SolveLR(inst, LROptions{Ctx: tc.ctx, Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			if inst.cross != nil {
				t.Fatal("cancelled build left a table on the instance")
			}
			if !lr.Stopped || lr.Iters != 0 {
				t.Fatalf("Stopped=%v Iters=%d, want Stopped after 0 iterations", lr.Stopped, lr.Iters)
			}
			greedy, err := inst.GreedyIndependent()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lr.Selection, greedy) {
				t.Fatalf("stopped LR selection %+v, want the repaired greedy %+v", lr.Selection, greedy)
			}
			if tc.ctx == expired {
				ir, err := SolveILP(inst, ILPOptions{Ctx: tc.ctx, Workers: tc.workers})
				if err != nil {
					t.Fatal(err)
				}
				if inst.cross != nil || !ir.TimedOut || !reflect.DeepEqual(ir.Selection, greedy) {
					t.Fatalf("expired ILP: table %v, TimedOut %v, selection %+v", inst.cross != nil, ir.TimedOut, ir.Selection)
				}
			}
			// A later solve with a live context builds the table and runs.
			ctx, stop := context.WithTimeout(context.Background(), time.Minute)
			defer stop()
			if lr, err = SolveLR(inst, LROptions{Ctx: ctx}); err != nil || lr.Stopped || inst.cross == nil {
				t.Fatalf("live solve after cancel: err %v, Stopped %v, table %v", err, lr.Stopped, inst.cross != nil)
			}
		})
	}
}
