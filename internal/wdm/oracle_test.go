package wdm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"operon/internal/geom"
	"operon/internal/mcmf"
)

// assignMonolithic is the differential oracle for AssignContext: the §4.2
// re-assignment as one min-cost max-flow per orientation over every
// connection and WDM, with each connection's arcs found by testing every
// WDM. AssignContext must agree with it on flow, total cost and used WDMs.
func assignMonolithic(conns []Connection, pl Placement, cfg Config) (Assignment, error) {
	if err := cfg.Validate(); err != nil {
		return Assignment{}, err
	}
	if len(pl.InitialAssign) != len(conns) {
		return Assignment{}, fmt.Errorf("wdm: placement covers %d of %d connections",
			len(pl.InitialAssign), len(conns))
	}
	out := Assignment{Shares: make([][]Share, len(conns))}
	used := make([]bool, len(pl.WDMs))
	for _, horizontal := range []bool{true, false} {
		var connIdx, wdmIdx []int
		totalBits := 0
		for i, c := range conns {
			if c.Horizontal() == horizontal {
				connIdx = append(connIdx, i)
				totalBits += c.Bits
			}
		}
		for w, wd := range pl.WDMs {
			if wd.Horizontal == horizontal {
				wdmIdx = append(wdmIdx, w)
			}
		}
		if len(connIdx) == 0 {
			continue
		}
		g := mcmf.New(len(connIdx) + len(wdmIdx) + 2)
		src, snk := 0, len(connIdx)+len(wdmIdx)+1
		for k, ci := range connIdx {
			g.AddEdge(src, 1+k, conns[ci].Bits, 0)
		}
		usageUnit := int64(totalBits)*dispScale + 1
		for q := range wdmIdx {
			g.AddEdge(1+len(connIdx)+q, snk, cfg.Capacity, usageUnit*int64(q+1))
		}
		type connArc struct {
			id, conn, wdm int
			distCM        float64
		}
		var arcs []connArc
		for k, ci := range connIdx {
			c := conns[ci]
			n := 0
			for q, w := range wdmIdx {
				d := math.Abs(c.coord() - pl.WDMs[w].CoordCM)
				if d <= cfg.MaxAssignDistCM+geom.Eps || w == pl.InitialAssign[ci] {
					cost := int64(d / cfg.MaxAssignDistCM * dispScale)
					if cost > dispScale {
						cost = dispScale
					}
					id := g.AddEdge(1+k, 1+len(connIdx)+q, c.Bits, cost)
					arcs = append(arcs, connArc{id: id, conn: ci, wdm: w, distCM: d})
					n++
				}
			}
			if n == 0 {
				return Assignment{}, fmt.Errorf("wdm: connection %d reaches no WDM", ci)
			}
		}
		res, err := g.MaxFlow(src, snk)
		if err != nil {
			return Assignment{}, err
		}
		if res.Flow != totalBits {
			return Assignment{}, fmt.Errorf("wdm: assignment routed %d of %d bits", res.Flow, totalBits)
		}
		for _, a := range arcs {
			if f := g.Flow(a.id); f > 0 {
				out.Shares[a.conn] = append(out.Shares[a.conn], Share{WDM: a.wdm, Bits: f})
				out.DisplacedBitCM += a.distCM * float64(f)
				used[a.wdm] = true
			}
		}
	}
	for w := range pl.WDMs {
		if used[w] {
			out.UsedWDMs = append(out.UsedWDMs, w)
		}
	}
	return out, nil
}

// objective recomputes the integer network cost of an assignment from its
// shares: quantised displacement plus the orientation's usage cost
// usageUnit·(q+1), per bit.
func objective(conns []Connection, pl Placement, cfg Config, as Assignment) int64 {
	var total int64
	for _, horizontal := range []bool{true, false} {
		bits := 0
		for _, c := range conns {
			if c.Horizontal() == horizontal {
				bits += c.Bits
			}
		}
		usageUnit := int64(bits)*dispScale + 1
		q := map[int]int64{}
		for w, wd := range pl.WDMs {
			if wd.Horizontal == horizontal {
				q[w] = int64(len(q))
			}
		}
		for i, c := range conns {
			if c.Horizontal() != horizontal {
				continue
			}
			for _, s := range as.Shares[i] {
				d := math.Abs(c.coord() - pl.WDMs[s.WDM].CoordCM)
				cost := min(int64(d/cfg.MaxAssignDistCM*dispScale), dispScale)
				total += int64(s.Bits) * (cost + usageUnit*(q[s.WDM]+1))
			}
		}
	}
	return total
}

// checkMatchesOracle asserts that Assign and the monolithic oracle agree:
// both fail or neither does, and on success every connection's bits are
// routed, no WDM is overloaded, and the total cost and used WDM set are
// equal. Only shares may differ, where the flow has ties.
func checkMatchesOracle(t testing.TB, conns []Connection, pl Placement, cfg Config) {
	t.Helper()
	want, werr := assignMonolithic(conns, pl, cfg)
	got, gerr := Assign(conns, pl, cfg)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("oracle error %v, Assign error %v", werr, gerr)
	}
	if werr != nil {
		return
	}
	load := make([]int, len(pl.WDMs))
	for i, c := range conns {
		routed := 0
		for _, s := range got.Shares[i] {
			routed += s.Bits
			load[s.WDM] += s.Bits
		}
		if routed != c.Bits {
			t.Fatalf("connection %d: %d of %d bits routed", i, routed, c.Bits)
		}
	}
	for w, l := range load {
		if l > cfg.Capacity {
			t.Fatalf("WDM %d carries %d > capacity %d", w, l, cfg.Capacity)
		}
	}
	if g, w := objective(conns, pl, cfg, got), objective(conns, pl, cfg, want); g != w {
		t.Fatalf("objective %d, oracle %d", g, w)
	}
	if !reflect.DeepEqual(got.UsedWDMs, want.UsedWDMs) {
		t.Fatalf("used WDMs %v, oracle %v", got.UsedWDMs, want.UsedWDMs)
	}
}

// randomConns draws n connections of both orientations. Coordinates sit on
// a grid of dis_u/4 steps over span, so many connection–WDM distances land
// exactly on the dis_u boundary.
func randomConns(rng *rand.Rand, n int, span float64, c Config) []Connection {
	step := c.MaxAssignDistCM / 4
	conns := make([]Connection, n)
	for i := range conns {
		coord := float64(rng.Intn(int(span/step)+1)) * step
		if rng.Intn(3) == 0 {
			coord += rng.Float64() * step
		}
		bits := 1 + rng.Intn(c.Capacity)
		if rng.Intn(2) == 0 {
			conns[i] = hconn(coord, 0, 1, bits)
		} else {
			conns[i] = vconn(coord, 0, 1, bits)
		}
	}
	return conns
}

// shuffled returns pl with its WDM list permuted (InitialAssign follows),
// so the WDMs of an orientation are no longer sorted by coordinate.
func shuffled(rng *rand.Rand, pl Placement) Placement {
	perm := rng.Perm(len(pl.WDMs))
	out := Placement{WDMs: make([]WDM, len(pl.WDMs)), InitialAssign: make([]int, len(pl.InitialAssign))}
	for w, p := range perm {
		out.WDMs[p] = pl.WDMs[w]
	}
	for i, w := range pl.InitialAssign {
		out.InitialAssign[i] = perm[w]
	}
	return out
}

// beyondReach counts connections whose placement WDM is farther than dis_u.
func beyondReach(conns []Connection, pl Placement, c Config) int {
	n := 0
	for i, w := range pl.InitialAssign {
		if math.Abs(conns[i].coord()-pl.WDMs[w].CoordCM) > c.MaxAssignDistCM+geom.Eps {
			n++
		}
	}
	return n
}

func TestAssignMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shifted := 0
	for trial := 0; trial < 60; trial++ {
		c := cfg()
		if trial%3 == 2 {
			// dis_l = dis_u: legalisation shifts dense WDM stacks beyond
			// the reach of the connections placed on them.
			c.MinSpacingCM = c.MaxAssignDistCM
		}
		conns := randomConns(rng, 10+rng.Intn(150), 0.05+rng.Float64()*1.5, c)
		pl, err := Place(conns, c)
		if err != nil {
			t.Fatal(err)
		}
		shifted += beyondReach(conns, pl, c)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkMatchesOracle(t, conns, pl, c)
			checkMatchesOracle(t, conns, shuffled(rng, pl), c)
		})
	}
	if shifted == 0 {
		t.Error("no instance has a WDM shifted beyond dis_u; the legalise case is not exercised")
	}
}

// TestArcWindowMatchesBruteForce checks the coordinate-window arc search
// against testing every WDM: the same arcs, in the same per-connection WDM
// order, for sorted and unsorted placements alike.
func TestArcWindowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		c := cfg()
		c.MinSpacingCM = float64(trial%4) / 3 * c.MaxAssignDistCM
		conns := randomConns(rng, 5+rng.Intn(100), rng.Float64(), c)
		pl, err := Place(conns, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Placement{pl, shuffled(rng, pl)} {
			for _, horizontal := range []bool{true, false} {
				o, err := newOrientNet(conns, p, c, horizontal)
				if err != nil {
					t.Fatal(err)
				}
				for k, ci := range o.conns {
					var want []int32
					for q, w := range o.wdms {
						d := math.Abs(conns[ci].coord() - p.WDMs[w].CoordCM)
						if d <= c.MaxAssignDistCM+geom.Eps || w == p.InitialAssign[ci] {
							want = append(want, int32(q))
						}
					}
					var got []int32
					for _, a := range o.arcs[o.arcStart[k]:o.arcStart[k+1]] {
						got = append(got, a.q)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d connection %d: arcs to %v, want %v", trial, ci, got, want)
					}
				}
			}
		}
	}
}

func TestAssignWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := cfg()
	conns := randomConns(rng, 600, 3, c)
	pl, err := Place(conns, c)
	if err != nil {
		t.Fatal(err)
	}
	var ref Assignment
	for _, workers := range []int{1, 2, 8} {
		c.Workers = workers
		as, err := Assign(conns, pl, c)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref = as
			continue
		}
		if !reflect.DeepEqual(as, ref) {
			t.Fatalf("Workers=%d assignment differs from Workers=1", workers)
		}
	}
}

func TestRunContextExpiredDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conns := randomConns(rng, 80, 1, cfg())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl, as, st, err := RunContext(ctx, conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatal("expired context did not degrade the assignment")
	}
	if want := PlacementAssignment(conns, pl); !reflect.DeepEqual(as, want) {
		t.Fatalf("degraded assignment %+v, want the placement's %+v", as, want)
	}
	if st.FinalWDMs != st.InitialWDMs {
		t.Errorf("degraded FinalWDMs %d, want InitialWDMs %d", st.FinalWDMs, st.InitialWDMs)
	}
}

// FuzzAssignMatchesMonolithic decodes connections from raw bytes (three per
// connection: orientation and bits, then a 16-bit grid coordinate in
// dis_u/16 steps), places them with dis_l = spacing/255·dis_u, optionally
// shuffles the WDM list, and checks Assign against the monolithic oracle.
func FuzzAssignMatchesMonolithic(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 4, 4, 0, 8}, uint8(0), int64(0))
	f.Add([]byte{62, 0, 1, 63, 0, 1, 62, 0, 2, 63, 0, 2, 61, 0, 3}, uint8(255), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, spacing uint8, perm int64) {
		c := cfg()
		c.MinSpacingCM = float64(spacing) / 255 * c.MaxAssignDistCM
		var conns []Connection
		for i := 0; i+2 < len(data) && len(conns) < 200; i += 3 {
			bits := 1 + int(data[i]>>1)%c.Capacity
			coord := float64(int(data[i+1])<<8|int(data[i+2])) * c.MaxAssignDistCM / 16
			if data[i]&1 == 0 {
				conns = append(conns, hconn(coord, 0, 1, bits))
			} else {
				conns = append(conns, vconn(coord, 0, 1, bits))
			}
		}
		pl, err := Place(conns, c)
		if err != nil {
			t.Fatal(err)
		}
		if perm != 0 {
			pl = shuffled(rand.New(rand.NewSource(perm)), pl)
		}
		checkMatchesOracle(t, conns, pl, c)
	})
}
