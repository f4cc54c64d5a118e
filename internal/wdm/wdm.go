// Package wdm implements OPERON's WDM stage (paper §4): the sweep placement
// that initialises waveguide locations under capacity and proximity bounds
// (§4.1) and the min-cost max-flow re-assignment that consolidates optical
// connections onto fewer WDMs (§4.2).
//
// Optical connections are classified by dominant orientation; horizontal
// and vertical WDMs are placed and assigned independently with the same
// procedure. Costs in the assignment network follow the paper: connection→
// WDM edges carry the (normalised) perpendicular displacement, WDM→sink
// edges carry usage costs, deliberately scaled to dominate displacement so
// the flow consolidates ("we normalize the costs of edges from VC to VW so
// that the WDMs' usages are emphasized").
package wdm

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"operon/internal/geom"
	"operon/internal/mcmf"
	"operon/internal/obs"
	"operon/internal/parallel"
)

// Connection is one point-to-point optical link of a routed hyper net.
type Connection struct {
	// Seg is the waveguide segment; its dominant orientation picks the WDM
	// family and its midpoint the placement coordinate.
	Seg geom.Segment
	// Bits is the number of wavelength channels the connection needs.
	Bits int
	// Net identifies the owning hyper net (for reporting only).
	Net int
}

// Horizontal reports the connection's dominant orientation.
func (c Connection) Horizontal() bool { return c.Seg.Horizontal() }

// coord returns the placement coordinate: the midpoint's y for horizontal
// connections, x for vertical ones.
func (c Connection) coord() float64 {
	if c.Horizontal() {
		return c.Seg.Midpoint().Y
	}
	return c.Seg.Midpoint().X
}

// Config carries the WDM parameters.
type Config struct {
	// Capacity is the channel capacity of one WDM waveguide.
	Capacity int
	// MinSpacingCM is dis_l: minimum spacing between adjacent WDMs
	// (crosstalk bound); placement legalises to it.
	MinSpacingCM float64
	// MaxAssignDistCM is dis_u: the maximum displacement allowed when
	// assigning a connection to a WDM.
	MaxAssignDistCM float64
	// Workers bounds how many independent components of the assignment
	// network Assign solves at once (0 = NumCPU). Each component's network
	// and the order its flows are read back in are fixed, so the result
	// does not depend on the worker count.
	Workers int
	// Obs, when non-nil, receives the wdm/place and wdm/assign spans (the
	// latter with the component count and the largest component's
	// connection count), the wdm.arcs counter, and the mcmf.augmentations
	// counter of every component's flow. Nil disables all instrumentation.
	Obs *obs.Tracer
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Capacity <= 0:
		return fmt.Errorf("wdm: capacity %d must be positive", c.Capacity)
	case c.MinSpacingCM < 0 || c.MaxAssignDistCM <= 0:
		return fmt.Errorf("wdm: invalid distance bounds")
	case c.MinSpacingCM > c.MaxAssignDistCM:
		return fmt.Errorf("wdm: dis_l %v exceeds dis_u %v", c.MinSpacingCM, c.MaxAssignDistCM)
	}
	return nil
}

// WDM is one placed waveguide.
type WDM struct {
	// Horizontal reports the waveguide's orientation; it carries only
	// connections of the same orientation.
	Horizontal bool
	// CoordCM is the waveguide's fixed coordinate (y if horizontal).
	CoordCM float64
	// InitialLoad is the channel load after the sweep placement.
	InitialLoad int
}

// Placement is the §4.1 result.
type Placement struct {
	// WDMs lists the placed waveguides of both orientations.
	WDMs []WDM
	// InitialAssign maps each connection (by input index) to its WDM.
	InitialAssign []int
}

// Place runs the sweep placement: connections of each orientation are
// sorted by coordinate and greedily packed onto the current WDM while both
// the capacity and the dis_u proximity bound hold; otherwise a new WDM is
// opened at the connection's coordinate. Adjacent WDMs closer than dis_l
// are then legalised by shifting.
func Place(conns []Connection, cfg Config) (Placement, error) {
	if err := cfg.Validate(); err != nil {
		return Placement{}, err
	}
	for i, c := range conns {
		if c.Bits <= 0 {
			return Placement{}, fmt.Errorf("wdm: connection %d has %d bits", i, c.Bits)
		}
		if c.Bits > cfg.Capacity {
			return Placement{}, fmt.Errorf("wdm: connection %d needs %d bits > capacity %d",
				i, c.Bits, cfg.Capacity)
		}
	}
	sp := cfg.Obs.Span("wdm/place", obs.LaneFlow, obs.I("connections", len(conns)))
	pl := Placement{InitialAssign: make([]int, len(conns))}
	for _, horizontal := range []bool{true, false} {
		idxs := make([]int, 0, len(conns))
		for i, c := range conns {
			if c.Horizontal() == horizontal {
				idxs = append(idxs, i)
			}
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			return conns[idxs[a]].coord() < conns[idxs[b]].coord()
		})
		cur := -1
		for _, ci := range idxs {
			c := conns[ci]
			if cur >= 0 &&
				pl.WDMs[cur].InitialLoad+c.Bits <= cfg.Capacity &&
				math.Abs(c.coord()-pl.WDMs[cur].CoordCM) <= cfg.MaxAssignDistCM {
				pl.WDMs[cur].InitialLoad += c.Bits
				pl.InitialAssign[ci] = cur
				continue
			}
			pl.WDMs = append(pl.WDMs, WDM{
				Horizontal:  horizontal,
				CoordCM:     c.coord(),
				InitialLoad: c.Bits,
			})
			cur = len(pl.WDMs) - 1
			pl.InitialAssign[ci] = cur
		}
		legalize(pl.WDMs, horizontal, cfg.MinSpacingCM)
	}
	sp.End(obs.I("wdms", len(pl.WDMs)))
	return pl, nil
}

// legalize shifts WDMs of one orientation so that adjacent coordinates are
// at least minSpacing apart, sweeping in coordinate order.
func legalize(wdms []WDM, horizontal bool, minSpacing float64) {
	if minSpacing <= 0 {
		return
	}
	idxs := make([]int, 0, len(wdms))
	for i, w := range wdms {
		if w.Horizontal == horizontal {
			idxs = append(idxs, i)
		}
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		return wdms[idxs[a]].CoordCM < wdms[idxs[b]].CoordCM
	})
	for k := 1; k < len(idxs); k++ {
		prev, cur := idxs[k-1], idxs[k]
		if wdms[cur].CoordCM-wdms[prev].CoordCM < minSpacing {
			wdms[cur].CoordCM = wdms[prev].CoordCM + minSpacing
		}
	}
}

// Share is a portion of a connection routed on one WDM. The network model
// allows a connection's bits to split across waveguides (§4.2's edge
// capacities are bit counts).
type Share struct {
	// WDM is the index of the waveguide in Placement.WDMs.
	WDM int
	// Bits is the number of the connection's channels it carries.
	Bits int
}

// Assignment is the §4.2 result.
type Assignment struct {
	// Shares[i] lists the WDM shares of connection i.
	Shares [][]Share
	// UsedWDMs lists the WDM indices that carry flow after re-assignment.
	UsedWDMs []int
	// DisplacedBitCM is the total |displacement|·bits moved, a measure of
	// how much the routing result was disturbed.
	DisplacedBitCM float64
}

// Used returns the number of WDMs carrying at least one bit.
func (a Assignment) Used() int { return len(a.UsedWDMs) }

// Assign re-allocates the placed connections with a min-cost max-flow per
// orientation: source→connection edges (capacity = bits), connection→WDM
// edges within dis_u (cost = normalised displacement), WDM→sink edges
// (capacity = WDM capacity, cost = usage, growing with WDM order so the
// flow consolidates onto fewer waveguides). WDMs left idle are dropped.
// It is AssignContext with context.Background() — the flow always runs to
// completion.
func Assign(conns []Connection, pl Placement, cfg Config) (Assignment, error) {
	return AssignContext(context.Background(), conns, pl, cfg)
}

// AssignContext is Assign bounded by a context. Cancellation is observed by
// the worker pool and by the min-cost-flow augmentation loop; once the
// context is done, AssignContext abandons the re-assignment and returns
// ctx.Err(). Callers that must produce an answer anyway fall back to
// PlacementAssignment, which derives a feasible (capacity-respecting)
// assignment straight from the sweep placement. A run that completes before
// cancellation is bit-identical to Assign.
//
// A connection→WDM edge exists only within dis_u (plus the connection's own
// placement WDM), so without the source and sink each orientation's network
// falls apart into connected components along the placement axis. Min-cost
// flow separates exactly across them: every component is solved as the
// induced subnetwork of the whole (same edges, same costs, the usage cost of
// each WDM keeping its orientation-wide rank), all components of both
// orientations in one worker-pool pass, and the flows are read back in
// (connection, WDM) order. The total cost equals that of one monolithic
// solve, and because usage costs are distinct and dominate displacement, so
// does the set of used WDMs.
func AssignContext(ctx context.Context, conns []Connection, pl Placement, cfg Config) (Assignment, error) {
	if err := cfg.Validate(); err != nil {
		return Assignment{}, err
	}
	if len(pl.InitialAssign) != len(conns) {
		return Assignment{}, fmt.Errorf("wdm: placement covers %d of %d connections",
			len(pl.InitialAssign), len(conns))
	}
	sp := cfg.Obs.Span("wdm/assign", obs.LaneFlow,
		obs.I("connections", len(conns)),
		obs.I("wdms", len(pl.WDMs)))
	var nets [2]*orientNet
	var comps []component
	for i, horizontal := range []bool{true, false} {
		o, err := newOrientNet(conns, pl, cfg, horizontal)
		if err != nil {
			return Assignment{}, err
		}
		nets[i] = o
		comps = o.split(comps)
	}

	// Largest components first, so no big one is left for the pool's tail.
	// The order does not reach the result: flows are read back per arc.
	slices.SortStableFunc(comps, func(a, b component) int {
		return cmp.Compare(len(b.conns), len(a.conns))
	})
	if len(comps) > 0 {
		// One reusable graph per worker: the allocation count of the pass
		// does not grow with the number of components.
		graphs := make([]*mcmf.Graph, parallel.Workers(cfg.Workers, len(comps)))
		err := parallel.ForEachWorkerContext(ctx, len(comps), cfg.Workers, func(w, i int) error {
			if graphs[w] == nil {
				graphs[w] = mcmf.New(0)
				graphs[w].Instrument(cfg.Obs)
			}
			return comps[i].solve(ctx, graphs[w], conns, cfg.Capacity)
		})
		if err != nil {
			return Assignment{}, err
		}
	}

	maxConns := 0
	for _, c := range comps {
		c.net.flow += c.flow
		maxConns = max(maxConns, len(c.conns))
	}
	out := Assignment{Shares: make([][]Share, len(conns))}
	used := make([]bool, len(pl.WDMs))
	nArcs := 0
	for _, o := range nets {
		if o.flow != o.totalBits {
			return Assignment{}, fmt.Errorf("wdm: assignment routed %d of %d bits",
				o.flow, o.totalBits)
		}
		nArcs += len(o.arcs)
		for k, ci := range o.conns {
			for _, a := range o.arcs[o.arcStart[k]:o.arcStart[k+1]] {
				if a.flow > 0 {
					w := o.wdms[a.q]
					out.Shares[ci] = append(out.Shares[ci], Share{WDM: w, Bits: a.flow})
					out.DisplacedBitCM += a.distCM * float64(a.flow)
					used[w] = true
				}
			}
		}
	}
	for w := range pl.WDMs {
		if used[w] {
			out.UsedWDMs = append(out.UsedWDMs, w)
		}
	}
	cfg.Obs.Counter("wdm.arcs").Add(int64(nArcs))
	sp.End(obs.I("arcs", nArcs),
		obs.I("flow_bits", nets[0].flow+nets[1].flow),
		obs.I("components", len(comps)),
		obs.I("max_component_conns", maxConns))
	return out, nil
}

// dispScale quantises displacement: an arc's cost is its displacement in
// dispScale steps of dis_u. Costs are integers so the flow arithmetic is
// exact, and one step of a WDM's usage cost exceeds any total displacement.
const dispScale = 1000

// arc is one connection→WDM edge of the assignment network.
type arc struct {
	q      int32   // the WDM's position in its orientation's WDM list
	edge   int32   // handle of the edge in the graph that solved it
	cost   int64   // quantised displacement
	distCM float64 // displacement
	flow   int     // bits routed on it, set by the solve
}

// orientNet is one orientation's assignment network: source→connection
// edges (capacity = bits), connection→WDM arcs and WDM→sink edges
// (capacity = WDM capacity, cost = usageUnit·(q+1)).
type orientNet struct {
	conns     []int // input indices of the orientation's connections; k indexes it
	wdms      []int // Placement.WDMs indices of the orientation; q indexes it
	totalBits int
	flow      int // bits routed, summed over the components after the solve
	usageUnit int64
	arcStart  []int32 // connection k's arcs are arcs[arcStart[k]:arcStart[k+1]], by q
	arcs      []arc
	local     []int32 // WDM q's position within its component
}

// newOrientNet builds one orientation's network. Connection k gets an arc
// to every WDM within dis_u+Eps and to its own placement WDM, found with a
// window search over the WDMs sorted by coordinate rather than by testing
// every WDM, so the work and memory are linear in the arc count.
func newOrientNet(conns []Connection, pl Placement, cfg Config, horizontal bool) (*orientNet, error) {
	o := &orientNet{conns: make([]int, 0, len(conns)), wdms: make([]int, 0, len(pl.WDMs))}
	for i, c := range conns {
		if c.Horizontal() == horizontal {
			o.conns = append(o.conns, i)
			o.totalBits += c.Bits
		}
	}
	if len(o.conns) == 0 {
		return o, nil
	}
	qOf := make([]int32, len(pl.WDMs)) // -1: the other orientation
	for w, wd := range pl.WDMs {
		qOf[w] = -1
		if wd.Horizontal == horizontal {
			qOf[w] = int32(len(o.wdms))
			o.wdms = append(o.wdms, w)
		}
	}
	o.usageUnit = int64(o.totalBits)*dispScale + 1
	coord := func(q int32) float64 { return pl.WDMs[o.wdms[q]].CoordCM }
	byCoord := make([]int32, len(o.wdms))
	for q := range byCoord {
		byCoord[q] = int32(q)
	}
	slices.SortFunc(byCoord, func(a, b int32) int {
		return cmp.Or(cmp.Compare(coord(a), coord(b)), cmp.Compare(a, b))
	})

	// window returns the WDMs (by q) with coordinates within reach of x,
	// bracketed by binary search: |x−y| ≤ reach is monotone on either side
	// of x in floating point too.
	reach := cfg.MaxAssignDistCM + geom.Eps
	window := func(x float64) []int32 {
		lo := sort.Search(len(byCoord), func(i int) bool {
			y := coord(byCoord[i])
			return y >= x || x-y <= reach
		})
		hi := lo + sort.Search(len(byCoord)-lo, func(i int) bool {
			y := coord(byCoord[lo+i])
			return y > x && y-x > reach
		})
		return byCoord[lo:hi]
	}
	nArcs := 0
	for _, ci := range o.conns {
		nArcs += len(window(conns[ci].coord())) + 1
	}
	o.arcs = make([]arc, 0, nArcs)
	o.arcStart = make([]int32, len(o.conns)+1)
	var qs []int32
	for k, ci := range o.conns {
		x := conns[ci].coord()
		qs = qs[:0]
		for _, q := range window(x) {
			if math.Abs(x-coord(q)) <= reach {
				qs = append(qs, q)
			}
		}
		if w := pl.InitialAssign[ci]; w >= 0 && w < len(pl.WDMs) && qOf[w] >= 0 && !slices.Contains(qs, qOf[w]) {
			qs = append(qs, qOf[w])
		}
		if len(qs) == 0 {
			return nil, fmt.Errorf("wdm: connection %d reaches no WDM", ci)
		}
		slices.Sort(qs)
		for _, q := range qs {
			d := math.Abs(x - coord(q))
			cost := min(int64(d/cfg.MaxAssignDistCM*dispScale), dispScale)
			o.arcs = append(o.arcs, arc{q: q, cost: cost, distCM: d})
		}
		o.arcStart[k+1] = int32(len(o.arcs))
	}
	return o, nil
}

// component is one connected piece of an orientation's network.
type component struct {
	net   *orientNet
	conns []int32 // connection positions k, ascending
	wdms  []int32 // WDM positions q, ascending
	flow  int     // bits routed, set by solve
}

// split appends the network's connected components to comps, ordered by
// their first connection. Union-find over the arcs roots every set at its
// smallest node; connections are numbered before WDMs, so a set holding a
// connection is rooted at one, and WDMs no arc reaches are left out.
func (o *orientNet) split(comps []component) []component {
	nc, nw := len(o.conns), len(o.wdms)
	if nc == 0 {
		return comps
	}
	parent := make([]int32, nc+nw)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for k := range nc {
		for _, a := range o.arcs[o.arcStart[k]:o.arcStart[k+1]] {
			rk, rq := find(int32(k)), find(int32(nc)+a.q)
			parent[max(rk, rq)] = min(rk, rq)
		}
	}
	roots := 0
	for v := range parent {
		parent[v] = find(int32(v))
		if v < nc && parent[v] == int32(v) {
			roots++
		}
	}
	comps = slices.Grow(comps, roots)
	// Component ids in place of roots; roots precede their members.
	first := len(comps)
	for v, r := range parent {
		switch {
		case r >= int32(nc):
			parent[v] = -1
		case r == int32(v):
			parent[v] = int32(len(comps) - first)
			comps = append(comps, component{net: o})
		default:
			parent[v] = parent[r]
		}
	}
	// Lay the members out component by component in one buffer per kind,
	// each component's slice capped at its own share.
	sizes := make([][2]int, len(comps)-first)
	nwIn := 0
	for v, id := range parent {
		switch {
		case id < 0:
		case v < nc:
			sizes[id][0]++
		default:
			sizes[id][1]++
			nwIn++
		}
	}
	connBuf, wdmBuf := make([]int32, nc), make([]int32, nwIn)
	for id, sz := range sizes {
		c := &comps[first+id]
		c.conns, connBuf = connBuf[:0:sz[0]], connBuf[sz[0]:]
		c.wdms, wdmBuf = wdmBuf[:0:sz[1]], wdmBuf[sz[1]:]
	}
	o.local = make([]int32, nw)
	for v, id := range parent {
		if id < 0 {
			continue
		}
		c := &comps[first+int(id)]
		if v < nc {
			c.conns = append(c.conns, int32(v))
		} else {
			o.local[v-nc] = int32(len(c.wdms))
			c.wdms = append(c.wdms, int32(v-nc))
		}
	}
	return comps
}

// solve runs the min-cost max-flow of the component on g, the induced
// subnetwork of its orientation's network with edges added in the same
// relative order, and records the flow of every arc.
func (c *component) solve(ctx context.Context, g *mcmf.Graph, conns []Connection, capacity int) error {
	o := c.net
	nc := len(c.conns)
	snk := nc + len(c.wdms) + 1
	g.Reset(snk + 1)
	for i, k := range c.conns {
		g.AddEdge(0, 1+i, conns[o.conns[k]].Bits, 0)
	}
	for j, q := range c.wdms {
		g.AddEdge(1+nc+j, snk, capacity, o.usageUnit*int64(q+1))
	}
	for i, k := range c.conns {
		bits := conns[o.conns[k]].Bits
		for a := o.arcStart[k]; a < o.arcStart[k+1]; a++ {
			ar := &o.arcs[a]
			ar.edge = int32(g.AddEdge(1+i, 1+nc+int(o.local[ar.q]), bits, ar.cost))
		}
	}
	res, err := g.MaxFlowContext(ctx, 0, snk)
	if err != nil {
		return err
	}
	c.flow = res.Flow
	for _, k := range c.conns {
		for a := o.arcStart[k]; a < o.arcStart[k+1]; a++ {
			o.arcs[a].flow = g.Flow(int(o.arcs[a].edge))
		}
	}
	return nil
}

// PlacementAssignment derives an Assignment directly from the sweep
// placement, without running the network-flow re-assignment: every
// connection keeps the WDM the placement packed it onto, whole. The result
// is feasible by construction — the sweep never exceeds a waveguide's
// capacity — but forgoes the §4.2 consolidation, so it uses as many WDMs as
// the placement opened. RunContext falls back to it when the context is
// cancelled mid-assignment (the graceful-degradation floor of the WDM
// stage; see DESIGN.md §8).
func PlacementAssignment(conns []Connection, pl Placement) Assignment {
	out := Assignment{Shares: make([][]Share, len(conns))}
	usedSet := map[int]bool{}
	for i, w := range pl.InitialAssign {
		out.Shares[i] = []Share{{WDM: w, Bits: conns[i].Bits}}
		usedSet[w] = true
	}
	for w := range pl.WDMs {
		if usedSet[w] {
			out.UsedWDMs = append(out.UsedWDMs, w)
		}
	}
	sort.Ints(out.UsedWDMs)
	return out
}

// Stats summarises the WDM pipeline for one design: the three bars of the
// paper's Fig. 8.
type Stats struct {
	// Connections counts the optical connections fed into the stage.
	Connections int
	// InitialWDMs counts the waveguides opened by the sweep placement.
	InitialWDMs int
	// FinalWDMs counts the waveguides still carrying flow after the
	// network-flow re-assignment (equals InitialWDMs when Degraded).
	FinalWDMs int
	// Degraded reports that the context was cancelled mid-assignment and the
	// result fell back to the placement-derived assignment: feasible, but
	// without the §4.2 consolidation.
	Degraded bool
}

// Reduction returns the fractional WDM saving of the assignment over the
// placement (the paper reports 8.9% on average).
func (s Stats) Reduction() float64 {
	if s.InitialWDMs == 0 {
		return 0
	}
	return 1 - float64(s.FinalWDMs)/float64(s.InitialWDMs)
}

// Run executes placement followed by assignment and returns everything.
// It is RunContext with context.Background() — never degraded.
func Run(conns []Connection, cfg Config) (Placement, Assignment, Stats, error) {
	return RunContext(context.Background(), conns, cfg)
}

// RunContext executes placement followed by assignment under ctx. The sweep
// placement always completes (it is the feasibility floor of the stage);
// when the context is cancelled during the network-flow re-assignment, the
// result degrades to PlacementAssignment and Stats.Degraded is set instead
// of returning an error. A run that completes before cancellation is
// bit-identical to Run.
func RunContext(ctx context.Context, conns []Connection, cfg Config) (Placement, Assignment, Stats, error) {
	pl, err := Place(conns, cfg)
	if err != nil {
		return Placement{}, Assignment{}, Stats{}, err
	}
	st := Stats{Connections: len(conns), InitialWDMs: len(pl.WDMs)}
	as, err := AssignContext(ctx, conns, pl, cfg)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		// Cancelled mid-assignment: keep the placement's packing.
		as = PlacementAssignment(conns, pl)
		st.Degraded = true
	default:
		return Placement{}, Assignment{}, Stats{}, err
	}
	st.FinalWDMs = as.Used()
	return pl, as, st, nil
}
