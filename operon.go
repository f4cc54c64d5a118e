// Package operon is a from-scratch reproduction of OPERON (Liu et al.,
// DAC 2018): optical-electrical power-efficient route synthesis for on-chip
// signals.
//
// The flow follows the paper's Fig. 2: signal processing clusters raw
// signal groups into hyper nets with hyper pins (§3.1); optical-electrical
// co-design derives candidate routes per hyper net over BI1S baseline
// topologies (§3.2); a selection stage picks one candidate per net under
// the detection constraints, either exactly by ILP (§3.3) or quickly by
// Lagrangian relaxation (§3.4); finally the optical connections are placed
// on and assigned to shared WDM waveguides by a min-cost max-flow (§4).
//
// Quick start:
//
//	design, _ := benchgen.Generate(spec)      // or build a signal.Design
//	res, err := operon.RunContextWith(ctx, design, operon.DefaultConfig(), nil)
//	fmt.Println(res.PowerMW, res.WDMStats)
//
// The two published baselines run through the same flow as two more modes:
// ModeElectrical (Streak-style all-electrical RSMT routing) and ModeOptical
// (GLOW-style all-optical routing with electrical fallback on loss
// violations).
package operon

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/obs"
	"operon/internal/optics"
	"operon/internal/power"
	"operon/internal/selection"
	"operon/internal/signal"
	"operon/internal/steiner"
	"operon/internal/wdm"
)

// Mode selects the flow: the candidate generator and the selector the
// staged pipeline runs. ModeLR, ModeILP and ModeGreedy share OPERON's
// co-design candidates and differ in selection; the two baselines bring
// their own generator and selector.
type Mode int

const (
	// ModeLR uses the Lagrangian-relaxation algorithm of §3.4 (fast).
	ModeLR Mode = iota
	// ModeILP uses the exact branch-and-bound ILP of §3.3 (slow, optimal
	// within the time limit).
	ModeILP
	// ModeGreedy selects each net's cheapest candidate independently and
	// repairs violations; a cheap lower baseline used in ablations.
	ModeGreedy
	// ModeElectrical is the Streak-style baseline [14]: every hyper net is
	// routed with an electrical rectilinear Steiner tree; power follows
	// Eq. (6). It is the degradation floor itself, so it ignores the
	// context, never sets Result.Degraded and runs no WDM stage.
	ModeElectrical
	// ModeOptical is the GLOW-style baseline [4]: every hyper net is routed
	// fully optically on its primary Steiner baseline; nets that cannot
	// meet the loss budget fall back to electrical wires. No
	// optical-electrical mixing.
	ModeOptical
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeILP:
		return "ilp"
	case ModeGreedy:
		return "greedy"
	case ModeElectrical:
		return "electrical"
	case ModeOptical:
		return "optical"
	default:
		return "lr"
	}
}

// flow is the Result.Flow label of a mode: "operon-<mode>" for the OPERON
// selectors, the bare name for the two baselines.
func (m Mode) flow() string {
	if m == ModeElectrical || m == ModeOptical {
		return m.String()
	}
	return "operon-" + m.String()
}

// Config collects every tunable of the flow. Obtain defaults from
// DefaultConfig and override as needed.
type Config struct {
	// Lib is the optical device and loss library.
	Lib optics.Library
	// Elec is the electrical wire power model.
	Elec power.ElectricalModel
	// PinMergeThresholdCM is the hyper-pin agglomeration distance (§3.1.2).
	PinMergeThresholdCM float64
	// MaxBaselines bounds the baseline topologies per hyper net (§3.2).
	MaxBaselines int
	// SubdivideCM splits baseline edges longer than this before co-design
	// labelling, enabling partial-optical routes and optical relays along
	// long connections (0 disables subdivision).
	SubdivideCM float64
	// MaxCandidates caps the co-design DP option lists.
	MaxCandidates int
	// MaxCandidatesPerNet caps the merged candidate set handed to the
	// selection stage (the electrical fallback always survives). Small
	// caps keep the ILP tractable, as the paper's per-net candidate lists
	// are short (Fig. 5(c) shows four).
	MaxCandidatesPerNet int
	// Mode picks the flow (see Mode).
	Mode Mode
	// ILPTimeLimit bounds the ILP solve (the paper used 3000 s); zero means
	// no limit. The flow applies it as a context deadline around the ILP
	// solve only, so the LR fallback still runs under the caller's context.
	ILPTimeLimit time.Duration
	// ILPMaxNodes bounds branch-and-bound nodes (0 = library default).
	ILPMaxNodes int
	// LR tunes the Lagrangian solver when Mode is ModeLR.
	LR selection.LROptions
	// Seed drives the deterministic clustering.
	Seed int64
	// SkipWDM disables the WDM placement/assignment stage.
	SkipWDM bool
	// Workers bounds the worker pool shared by every parallel stage of the
	// flow — per-group signal processing, baseline construction, candidate
	// generation, Lagrangian pricing, and WDM arc costing (0 = NumCPU).
	// Results are bit-identical regardless of the worker count.
	Workers int
	// Obs, when non-nil, receives the flow's spans, events, and counters:
	// stage spans ("stage/process", ...), per-hyper-net candidate spans on
	// worker lanes, LR iterate events, ILP node events, and the LP/MCMF
	// behaviour counters. Nil (the default) compiles the whole
	// instrumentation path down to nil checks — see BenchmarkObsOverhead.
	Obs *obs.Tracer
}

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Lib:                 optics.DefaultLibrary(),
		Elec:                power.DefaultElectricalModel(),
		PinMergeThresholdCM: 0.1,
		MaxBaselines:        3,
		SubdivideCM:         0.35,
		MaxCandidates:       24,
		MaxCandidatesPerNet: 6,
		Mode:                ModeLR,
		ILPTimeLimit:        60 * time.Second,
	}
}

// StageTimes records per-stage wall-clock durations.
type StageTimes struct {
	// Process is the signal-processing stage (§3.1).
	Process time.Duration
	// Candidates is the co-design candidate generation stage (§3.2).
	Candidates time.Duration
	// Selection is the solution-determination stage (§3.3/§3.4).
	Selection time.Duration
	// WDM is the waveguide placement/assignment stage (§4).
	WDM time.Duration
}

// Total returns the summed stage time.
func (s StageTimes) Total() time.Duration {
	return s.Process + s.Candidates + s.Selection + s.WDM
}

// startStage opens one "stage/..." span on the flow lane and returns its
// stop function. Stopping stores the span's own duration into slot, which
// keeps StageTimes an exact derived view of the recorded spans, and records
// the same duration into the tracer's per-stage latency histogram (so a
// long-lived tracer — a serving process — accumulates stage latency
// distributions across runs, not just the last run's means). With no tracer
// attached it degrades to a plain wall-clock measurement.
func startStage(t *obs.Tracer, name string, slot *time.Duration) func(attrs ...obs.Attr) {
	if t == nil {
		start := time.Now()
		return func(...obs.Attr) { *slot = time.Since(start) }
	}
	sp := t.Span(name, obs.LaneFlow)
	h := t.Histogram(name)
	return func(attrs ...obs.Attr) {
		d := sp.End(attrs...)
		*slot = d
		h.RecordDuration(d)
	}
}

// Result is the outcome of one flow run.
type Result struct {
	// Design echoes the input design's name.
	Design string
	// Flow names the mode that produced the result: "operon-lr",
	// "operon-ilp", "operon-greedy", "electrical" or "optical".
	Flow string
	// HyperNets is the signal-processing output (§3.1).
	HyperNets []signal.HyperNet
	// Nets holds the candidate lists handed to the selection stage.
	Nets []selection.Net
	// Selection is the chosen candidate per net with its evaluation.
	Selection selection.Selection
	// PowerMW is the total power of the selected routes.
	PowerMW float64
	// ILP carries exact-solver diagnostics when ModeILP ran.
	ILP *selection.ILPResult
	// LR carries Lagrangian diagnostics when ModeLR ran (or when the ILP
	// degraded onto the LR fallback).
	LR *selection.LRResult
	// Connections is the optical connection set extracted from the
	// selection (empty when SkipWDM or no optical connections).
	Connections []wdm.Connection
	// Placement is the §4.2 waveguide placement of Connections.
	Placement wdm.Placement
	// Assignment is the §4.3 wavelength assignment of Connections.
	Assignment wdm.Assignment
	// WDMStats summarises the WDM pipeline (including its Degraded flag).
	WDMStats wdm.Stats
	// Degraded reports that the run hit a time budget (context deadline,
	// cancellation, or ILPTimeLimit) and took a fallback rung
	// of the degradation ladder — LR incumbent instead of a finished ILP,
	// electrical-only routing instead of co-design candidates, or a
	// placement-derived WDM assignment instead of the min-cost flow. The
	// Selection is feasible either way; Degraded only flags that it may be
	// weaker than an unbounded run's.
	Degraded bool
	// StopReason says why a degraded run stopped early: StopDeadline or
	// StopCanceled. StopNone for complete runs.
	StopReason StopReason
	// Times is a derived view of the stage spans: each entry is exactly the
	// duration of the corresponding "stage/..." span recorded on Obs (or a
	// plain wall-clock measurement when no tracer is attached), so
	// Times.Total() equals the sum of the recorded stage spans.
	Times StageTimes
	// Obs echoes Config.Obs so callers holding only the Result can read the
	// counter snapshot of the run; nil when the run was uninstrumented.
	Obs *obs.Tracer
}

// Stats returns the hyper-net statistics of the run (Table 1's #HNet and
// #HPin columns).
func (r *Result) Stats() signal.Stats { return signal.Summarize(r.HyperNets) }

// RunContextWith executes the flow that cfg.Mode selects on a design under
// a context. It is the one solve entry point; Session.Resolve runs the same
// staged pipeline with its last committed state to reuse.
//
// Cancelling ctx (or letting its deadline expire) never errors the run out:
// the flow degrades along a fixed ladder and still returns a feasible
// routing, with Result.Degraded and Result.StopReason recording what
// happened. The rungs, from best to worst:
//
//  1. ILP cut short → the best branch-and-bound incumbent, cross-checked
//     against a Lagrangian-relaxation solve (the cheaper feasible selection
//     wins) — the paper's own ">3000 s" fallback.
//  2. LR cut short → the repaired selection of the last finished iteration.
//  3. Candidate generation cut short → all-electrical RSMT routing for every
//     hyper net (the floor; always feasible, runs even under an expired ctx).
//
// The WDM stage degrades independently: cancelled mid-assignment it falls
// back to the placement-derived wavelength assignment (wdm.Stats.Degraded).
// ModeElectrical is the floor itself and ignores ctx.
//
// Cancellation is polled only at deterministic points (iteration and node
// boundaries, every few simplex pivots), so a run that completes before its
// deadline is bit-identical to one without a deadline. Each degradation
// emits a flow/degraded event and bumps the flow.degraded counter on
// Config.Obs. A nil ctx means context.Background().
//
// ws is a caller-held Workspace: the per-worker solver scratch survives
// across runs, so a caller solving many designs (or a serving queue slot)
// amortises candidate-generation allocation to near zero. A nil ws uses a
// run-local workspace (scratch still reused across nets within the run).
// The workspace never affects results — only allocation behaviour — and
// must not be shared by concurrent runs.
func RunContextWith(ctx context.Context, d signal.Design, cfg Config, ws *Workspace) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	res, _, _, err := solve(ctx, d, cfg, ws, nil)
	return res, err
}

// runSelection runs the selector of mode on inst and fills res.Selection
// (plus the ILP/LR diagnostics), marking res degraded when a solver hit its
// budget.
func runSelection(ctx context.Context, cfg Config, mode Mode, ws *Workspace, inst *selection.Instance, res *Result) error {
	var err error
	switch mode {
	case ModeILP:
		// The ILP budget is a deadline on the ILP solve alone; the LR
		// fallback below keeps the caller's context.
		ictx, cancel := ctx, context.CancelFunc(func() {})
		if cfg.ILPTimeLimit > 0 {
			ictx, cancel = context.WithTimeout(ctx, cfg.ILPTimeLimit)
		}
		ir, err := selection.SolveILP(inst, selection.ILPOptions{
			Ctx: ictx, MaxNodes: cfg.ILPMaxNodes,
			Workers: cfg.Workers, Arena: ws.arenaOf(), Obs: cfg.Obs,
		})
		cancel()
		if err != nil {
			return err
		}
		res.ILP = &ir
		res.Selection = ir.Selection
		if ir.TimedOut {
			// Rung 1 of the ladder: the paper falls back to the Lagrangian
			// relaxation when the ILP exceeds its budget. Both selections are
			// feasible; keep the cheaper one (ties go to the incumbent).
			lr, err := selection.SolveLR(inst, lrOptions(ctx, cfg))
			if err != nil {
				return err
			}
			res.LR = &lr
			if lr.Selection.PowerMW < ir.Selection.PowerMW {
				res.Selection = lr.Selection
			}
			res.markDegraded(ctx, cfg, "selection")
		}
	case ModeGreedy:
		res.Selection, err = inst.GreedyIndependent()
	case ModeElectrical:
		res.Selection, err = inst.AllElectrical()
	case ModeOptical:
		// GLOW semantics: optical wherever feasible (candidate 0), electrical
		// only on loss violation (Repair demotes the violators).
		var sel selection.Selection
		if sel, err = inst.Evaluate(make([]int, len(inst.Nets))); err == nil {
			res.Selection, err = inst.Repair(sel)
		}
	default:
		lr, err := selection.SolveLR(inst, lrOptions(ctx, cfg))
		if err != nil {
			return err
		}
		res.LR = &lr
		res.Selection = lr.Selection
		if lr.Stopped {
			res.markDegraded(ctx, cfg, "selection")
		}
	}
	return err
}

// lrOptions resolves Config.LR for a flow-level solve: the flow context
// bounds the solve unless the caller pinned an explicit one, and worker
// count and tracer default to the flow's.
func lrOptions(ctx context.Context, cfg Config) selection.LROptions {
	lrOpt := cfg.LR
	if lrOpt.Ctx == nil {
		lrOpt.Ctx = ctx
	}
	if lrOpt.Workers == 0 {
		lrOpt.Workers = cfg.Workers
	}
	if lrOpt.Obs == nil {
		lrOpt.Obs = cfg.Obs
	}
	return lrOpt
}

// buildEnvs collects, for every hyper net, the primary-baseline optical
// segments of the other hyper nets whose bounding boxes overlap — the
// crossing-estimation environment for candidate generation — and, alongside
// each environment, the ascending list of net indices that contributed
// segments to it. A net's
// environment is exactly the concatenation of its contributors' primary-tree
// segments in index order, so two solves whose contributor lists map to each
// other net-for-net (with identical trees) see byte-identical environments —
// the invariant incremental re-synthesis uses to decide candidate reuse.
func buildEnvs(hnets []signal.HyperNet, trees [][]steiner.Tree) ([][]geom.Segment, [][]int) {
	type netGeom struct {
		segs []geom.Segment
		box  geom.Rect
	}
	geoms := make([]netGeom, len(hnets))
	for i := range hnets {
		segs := trees[i][0].Segments()
		g := netGeom{segs: segs}
		if len(segs) > 0 {
			g.box = segs[0].BBox()
			for _, s := range segs[1:] {
				g.box = g.box.Union(s.BBox())
			}
		}
		geoms[i] = g
	}
	envs := make([][]geom.Segment, len(hnets))
	contribs := make([][]int, len(hnets))
	for i := range hnets {
		for j := range hnets {
			if i == j || len(geoms[j].segs) == 0 || len(geoms[i].segs) == 0 {
				continue
			}
			if geoms[i].box.Overlaps(geoms[j].box) {
				envs[i] = append(envs[i], geoms[j].segs...)
				contribs[i] = append(contribs[i], j)
			}
		}
	}
	return envs, contribs
}

// generateNetCandidates builds hyper net i's merged candidate list from its
// baseline topologies and crossing environment: the co-design DP per tree
// (subdividing loss-pressed ones), dominated-candidate thinning, and the
// RSMT electrical fallback. Pure in everything but scratch — the same
// (hn, trees, env, cfg) always yields the same candidates, which is what
// lets incremental re-synthesis skip it for untouched nets.
func generateNetCandidates(i int, hn signal.HyperNet, trees []steiner.Tree, env []geom.Segment, cfg Config, scr *workerScratch) (selection.Net, error) {
	bits := hn.BitCount()
	var cands []codesign.Candidate
	for _, tr := range trees {
		// Subdivide only loss-pressed topologies: relays and partial-
		// optical routes pay off when the detection budget binds, and
		// unconditional subdivision inflates every net's candidate set
		// (and with it the ILP).
		if cfg.SubdivideCM > 0 && lossPressed(tr, env, cfg.Lib, len(hn.Pins)-1) {
			tr = steiner.Subdivide(tr, cfg.SubdivideCM)
		}
		cs, err := codesign.GenerateWS(codesign.Input{
			Tree:       tr,
			Bits:       bits,
			Lib:        cfg.Lib,
			Elec:       cfg.Elec,
			Env:        env,
			MaxOptions: cfg.MaxCandidates,
		}, scr.codesign)
		if err != nil {
			return selection.Net{}, fmt.Errorf("operon: net %d: %w", i, err)
		}
		cands = append(cands, cs...)
	}
	// Replace the per-tree electrical fallbacks with a single RSMT-based
	// one (proper rectilinear Steiner tree, not the Euclidean baseline
	// re-measured in the Manhattan metric).
	kept := cands[:0]
	for _, c := range cands {
		if !c.AllElectrical {
			kept = append(kept, c)
		}
	}
	fallback, err := electricalCandidate(hn, cfg, scr)
	if err != nil {
		return selection.Net{}, err
	}
	kept = thinCandidates(kept, cfg.MaxCandidatesPerNet-1)
	return selection.Net{Bits: bits, Cands: append(kept, fallback)}, nil
}

// lossPressed estimates whether an all-optical implementation of the tree
// would approach the detection budget: propagation over the whole tree,
// crossing loss against the environment, and a single splitting stage per
// sink. Nets above 70%% of l_m get subdivided topologies.
func lossPressed(tr steiner.Tree, env []geom.Segment, lib optics.Library, sinks int) bool {
	loss := lib.PropagationLossDB(tr.EuclideanLength())
	for _, s := range tr.Segments() {
		loss += lib.CrossingLossDB(geom.CrossingsWithSegment(s, env))
	}
	loss += optics.SplittingLossDB(sinks)
	return loss > 0.7*lib.MaxLossDB
}

// thinCandidates reduces a merged candidate list to at most max entries:
// dominated candidates (in power and worst fixed loss) are dropped first,
// then the Pareto front is subsampled evenly along its power ordering so
// loss diversity survives. max <= 0 keeps everything.
func thinCandidates(cands []codesign.Candidate, max int) []codesign.Candidate {
	if max <= 0 || len(cands) <= max {
		return cands
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].PowerMW < cands[j].PowerMW })
	var front []codesign.Candidate
	bestLoss := math.Inf(1)
	for _, c := range cands {
		// Power-ascending scan: keep only candidates that strictly improve
		// the best loss seen so far (the Pareto front).
		if c.MaxFixedLossDB < bestLoss-1e-12 || len(front) == 0 {
			front = append(front, c)
			if c.MaxFixedLossDB < bestLoss {
				bestLoss = c.MaxFixedLossDB
			}
		}
	}
	if len(front) <= max {
		return front
	}
	if max == 1 {
		return front[:1] // the minimum-power candidate
	}
	out := make([]codesign.Candidate, 0, max)
	for k := 0; k < max; k++ {
		idx := k * (len(front) - 1) / (max - 1)
		out = append(out, front[idx])
	}
	return out
}

// electricalCandidate builds the a_ie fallback: an all-electrical RSMT
// route evaluated under Eq. (6), on the calling worker's scratch.
func electricalCandidate(hn signal.HyperNet, cfg Config, scr *workerScratch) (codesign.Candidate, error) {
	tree := steiner.BI1SWS(hn.Terminals(), steiner.Rectilinear, steiner.BI1SConfig{}, scr.steiner)
	in := codesign.Input{Tree: tree, Bits: hn.BitCount(), Lib: cfg.Lib, Elec: cfg.Elec}
	cand, _ := codesign.EvaluateWS(in, scr.fillLabels(len(tree.Edges), codesign.Electrical), scr.codesign)
	if !cand.AllElectrical {
		return codesign.Candidate{}, fmt.Errorf("operon: electrical fallback is not all-electrical")
	}
	return cand, nil
}

// extractConnections turns a selection into the optical connection set the
// WDM stage places: per chosen candidate, consecutive collinear optical
// chunks (from edge subdivision) merge into one physical waveguide. Pure, so
// two solves with identical nets and choices extract identical connections.
func extractConnections(nets []selection.Net, choice []int) []wdm.Connection {
	var conns []wdm.Connection
	for i, j := range choice {
		for _, seg := range geom.MergeCollinear(nets[i].Cands[j].OpticalSegs) {
			conns = append(conns, wdm.Connection{Seg: seg, Bits: nets[i].Bits, Net: i})
		}
	}
	return conns
}

// assignWDMs extracts the optical connections of the selection and runs
// the §4 WDM pipeline under ctx. Cancellation never errors: wdm.RunContext
// falls back to the placement-derived assignment and flags it in
// Stats.Degraded, which the caller folds into Result.Degraded.
func (r *Result) assignWDMs(ctx context.Context, cfg Config) error {
	r.Connections = extractConnections(r.Nets, r.Selection.Choice)
	pl, as, st, err := wdm.RunContext(ctx, r.Connections, wdm.Config{
		Capacity:        cfg.Lib.WDMCapacity,
		MinSpacingCM:    cfg.Lib.CrosstalkMinDistCM,
		MaxAssignDistCM: cfg.Lib.AssignMaxDistCM,
		Workers:         cfg.Workers,
		Obs:             cfg.Obs,
	})
	if err != nil {
		return err
	}
	r.Placement = pl
	r.Assignment = as
	r.WDMStats = st
	return nil
}
