package operon

import (
	"context"
	"fmt"
	"time"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/obs"
	"operon/internal/parallel"
	"operon/internal/selection"
	"operon/internal/signal"
	"operon/internal/steiner"
)

// candidateGen is the candidate generator a Mode plugs into the pipeline's
// candidates stage: net builds hyper net i's candidate list on the calling
// worker's scratch and must be pure in everything but scratch, which is what
// lets a session skip it for untouched nets.
type candidateGen struct {
	// span names the per-net span on the worker lanes.
	span string
	// trees reports that net consumes the baseline trees and crossing
	// environments; generators without it get nil for both.
	trees bool
	// hist records each net's span duration into the span's histogram.
	hist bool
	net  func(i int, hn signal.HyperNet, trees []steiner.Tree, env []geom.Segment, cfg Config, scr *workerScratch) (selection.Net, error)
}

var (
	coDesignGen   = &candidateGen{span: "net/candidates", trees: true, hist: true, net: generateNetCandidates}
	opticalGen    = &candidateGen{span: "net/optical", trees: true, net: opticalNet}
	electricalGen = &candidateGen{span: "net/electrical", net: electricalNet}
	// floorGen is the electrical generator under the floor rung's span name.
	floorGen = &candidateGen{span: "net/electrical-floor", net: electricalNet}
)

// generator returns the candidate generator of a mode; the three OPERON
// selectors share the co-design generator.
func (m Mode) generator() *candidateGen {
	switch m {
	case ModeElectrical:
		return electricalGen
	case ModeOptical:
		return opticalGen
	default:
		return coDesignGen
	}
}

// sessionState is the committed snapshot of the last successful
// (non-degraded) solve — everything a later solve may reuse.
type sessionState struct {
	design     signal.Design // never mutated: Session.Apply replaces, not edits
	cfg        Config
	groupHNets [][]signal.HyperNet
	groupStart []int // first net index of each group in the flat net order
	hnets      []signal.HyperNet
	trees      [][]steiner.Tree // nil when the generator needs none
	contribs   [][]int          // per net, ascending env-contributor net indices
	nets       []selection.Net
	inst       *selection.Instance
	res        *Result
}

// solve is the flow's one staged pipeline — process → candidates →
// selection → WDM — behind both RunContextWith (prev == nil) and
// Session.Resolve (prev = the last committed state). cfg.Mode picks the
// candidate generator and the selector; everything else is shared,
// including the degradation ladder. Ahead of each stage, solve decides from
// prev which outputs carry over: reuse is restricted to stage outputs whose
// inputs are provably identical, so a solve with prev is bit-identical to
// one without. It returns the state a session may commit, or nil when the
// result must not be committed (degraded run).
func solve(ctx context.Context, d signal.Design, cfg Config, ws *Workspace, prev *sessionState) (*Result, *sessionState, ResolveStats, error) {
	var st ResolveStats
	if err := cfg.Lib.Validate(); err != nil {
		return nil, nil, st, err
	}
	if err := cfg.Elec.Validate(); err != nil {
		return nil, nil, st, err
	}
	if err := d.Validate(); err != nil {
		return nil, nil, st, err
	}
	if cfg.Lib.WDMCapacity <= 0 {
		return nil, nil, st, fmt.Errorf("signal: WDM capacity %d must be positive", cfg.Lib.WDMCapacity)
	}
	if cfg.Mode == ModeElectrical {
		ctx = context.Background() // the floor ignores cancellation by design
	}
	gen := cfg.Mode.generator()

	var delta cfgDelta
	if prev != nil {
		delta = diffConfig(prev.cfg, cfg)
	} else {
		st.Cold = true
	}

	// Group-level dirty set, by content: group gi is clean iff the previous
	// committed design had an equal group at the same index (the clustering
	// seed is Seed+index, so position matters as much as content).
	nG := len(d.Groups)
	groupClean := make([]bool, nG)
	allClean := prev != nil && !delta.proc && nG == len(prev.design.Groups)
	if prev != nil && !delta.proc {
		for gi := 0; gi < nG; gi++ {
			if gi < len(prev.design.Groups) && groupsEqual(d.Groups[gi], prev.design.Groups[gi]) {
				groupClean[gi] = true
			} else {
				allClean = false
			}
		}
	}

	// Nothing dirty at all: hand back the committed result without running
	// any stage. (A cold run under an expired ctx would degrade; returning
	// the complete cached result is strictly better and still matches an
	// un-expired cold run bit-for-bit.)
	if allClean && !delta.any() && fullReuseSafe(cfg) {
		st.FullReuse = true
		st.GroupsReused = nG
		st.TreesReused = len(prev.trees)
		st.CandsReused = len(prev.hnets)
		st.WDMReused = !cfg.SkipWDM && cfg.Mode != ModeElectrical
		out := *prev.res
		out.Times = StageTimes{}
		out.Obs = cfg.Obs
		return &out, prev, st, nil
	}

	res := &Result{Design: d.Name, Flow: cfg.Mode.flow(), Obs: cfg.Obs}

	// Stage 1: signal processing, per group, reusing clean groups' nets.
	stop := startStage(cfg.Obs, "stage/process", &res.Times.Process)
	procCfg := signal.ProcessConfig{
		WDMCapacity:         cfg.Lib.WDMCapacity,
		PinMergeThresholdCM: cfg.PinMergeThresholdCM,
		Seed:                cfg.Seed,
	}
	groupHNets := make([][]signal.HyperNet, nG)
	err := parallel.ForEach(nG, cfg.Workers, func(gi int) error {
		if groupClean[gi] {
			groupHNets[gi] = prev.groupHNets[gi]
			return nil
		}
		hns, err := signal.ProcessGroup(d.Groups[gi], gi, procCfg)
		groupHNets[gi] = hns
		return err
	})
	if err != nil {
		return nil, nil, st, err
	}
	groupStart := make([]int, nG)
	var hnets []signal.HyperNet
	for gi, g := range groupHNets {
		groupStart[gi] = len(hnets)
		hnets = append(hnets, g...)
		if groupClean[gi] {
			st.GroupsReused++
		} else {
			st.GroupsRebuilt++
		}
	}
	if len(hnets) == 0 {
		return nil, nil, st, fmt.Errorf("operon: design %q produced no hyper nets", d.Name)
	}
	res.HyperNets = hnets
	stop(obs.I("hyper_nets", len(hnets)))

	// Degraded results go to the floor rung and are never committed.
	degrade := func() (*Result, *sessionState, ResolveStats, error) {
		if err := res.floor(ctx, cfg, ws); err != nil {
			return nil, nil, st, err
		}
		return res, nil, st, nil
	}
	if ctx.Err() != nil {
		// The budget was gone before candidate generation even started:
		// straight to the floor.
		return degrade()
	}

	// Stage 2: baseline trees (for generators that use them) and candidate
	// sets, per net. netPrev maps a net in a clean group to its previous
	// index (clean groups sit at the same group index and ProcessGroup is
	// deterministic, so within-group net order carries over verbatim).
	stop = startStage(cfg.Obs, "stage/candidates", &res.Times.Candidates)
	abort := func(err error) (*Result, *sessionState, ResolveStats, error) {
		if ctx.Err() == nil {
			return nil, nil, st, err
		}
		stop(obs.I("nets", 0), obs.S("aborted", "context"))
		return degrade()
	}
	nN := len(hnets)
	netPrev := make([]int, nN)
	for gi := range groupHNets {
		for k := range groupHNets[gi] {
			i := groupStart[gi] + k
			netPrev[i] = -1
			if groupClean[gi] {
				netPrev[i] = prev.groupStart[gi] + k
			}
		}
	}
	treeOK := make([]bool, nN)
	var trees [][]steiner.Tree
	var envs [][]geom.Segment
	var contribs [][]int
	if gen.trees {
		blStart := time.Now()
		maxBl := cfg.MaxBaselines
		if maxBl <= 0 {
			maxBl = 3
		}
		trees = make([][]steiner.Tree, nN)
		rebuild := make([]int, 0, nN)
		for i := 0; i < nN; i++ {
			treeOK[i] = netPrev[i] >= 0 && !delta.trees
			if treeOK[i] {
				trees[i] = prev.trees[netPrev[i]]
				st.TreesReused++
			} else {
				rebuild = append(rebuild, i)
				st.TreesRebuilt++
			}
		}
		err := parallel.ForEachScratchContext(ctx, ws.arenaOf(), len(rebuild), cfg.Workers, func(w int, sc *parallel.Scratch, k int) error {
			i := rebuild[k]
			trees[i] = steiner.BaselinesWS(hnets[i].Terminals(), steiner.Euclidean, maxBl, grabScratch(sc, cfg.Obs).steiner)
			return nil
		})
		if err != nil {
			return abort(err)
		}
		// The baseline-topology sweep is the first half of the candidates
		// stage; its own histogram separates Steiner construction from
		// candidate generation in the serving-side latency breakdown.
		cfg.Obs.Histogram("stage/baselines").RecordDuration(time.Since(blStart))
		envs, contribs = buildEnvs(hnets, trees)
	}

	// A net's candidates are reusable when no candidate-relevant knob
	// changed and, for generators that read them, its own trees carried over
	// and its crossing environment is byte-identical: same contributors
	// (mapped index-for-index onto the previous solve) each with
	// carried-over trees.
	candMap := make([]int, nN) // previous index of a reused candidate set, or -1
	nets := make([]selection.Net, nN)
	rebuild := make([]int, 0, nN)
	for i := 0; i < nN; i++ {
		candMap[i] = -1
		if netPrev[i] >= 0 && !delta.cands && (!gen.trees || treeOK[i] && contribsMatch(i, netPrev, treeOK, contribs, prev)) {
			candMap[i] = netPrev[i]
			nets[i] = prev.nets[netPrev[i]]
			st.CandsReused++
		} else {
			rebuild = append(rebuild, i)
			st.CandsRebuilt++
		}
	}
	if err := buildNets(ctx, gen, rebuild, hnets, trees, envs, nets, cfg, ws); err != nil {
		return abort(err)
	}
	res.Nets = nets
	stop(obs.I("nets", len(nets)))

	// Stage 3: selection. The instance is rebuilt (its index bookkeeping is
	// cheap) but seeded with every crossing-loss memo entry whose two nets
	// both carried their candidates over — a pure memo, so seeding cannot
	// change results.
	inst, err := selection.NewInstance(nets, cfg.Lib)
	if err != nil {
		return nil, nil, st, err
	}
	if prev != nil && prev.inst != nil {
		st.CrossCacheSeeded = inst.SeedCrossCache(prev.inst, candMap)
	}
	stop = startStage(cfg.Obs, "stage/selection", &res.Times.Selection)
	if err := runSelection(ctx, cfg, cfg.Mode, ws, inst, res); err != nil {
		return nil, nil, st, err
	}
	stop(obs.S("mode", cfg.Mode.String()))
	res.PowerMW = res.Selection.PowerMW

	// Stage 4: WDM. Reusable only when its exact inputs recurred: identical
	// net list (every net carried over in place) and identical choice.
	if !cfg.SkipWDM && cfg.Mode != ModeElectrical {
		stop = startStage(cfg.Obs, "stage/wdm", &res.Times.WDM)
		if prev != nil && !delta.wdm && identityMap(candMap) && len(prev.nets) == nN &&
			intsEqual(res.Selection.Choice, prev.res.Selection.Choice) {
			st.WDMReused = true
			res.Connections = prev.res.Connections
			res.Placement = prev.res.Placement
			res.Assignment = prev.res.Assignment
			res.WDMStats = prev.res.WDMStats
		} else if err := res.assignWDMs(ctx, cfg); err != nil {
			return nil, nil, st, err
		}
		if res.WDMStats.Degraded {
			res.markDegraded(ctx, cfg, "wdm")
		}
		stop(obs.I("wdms_used", res.WDMStats.FinalWDMs))
	}

	if res.Degraded {
		return res, nil, st, nil
	}
	return res, &sessionState{
		design:     d,
		cfg:        cfg,
		groupHNets: groupHNets,
		groupStart: groupStart,
		hnets:      hnets,
		trees:      trees,
		contribs:   contribs,
		nets:       nets,
		inst:       inst,
		res:        res,
	}, st, nil
}

// buildNets fills nets[i] with gen's candidates for every net i in todo, on
// the workspace's per-worker scratch. Cancelling ctx stops dispatch of
// further nets (in-flight ones finish — the pool's deterministic drain) and
// returns ctx.Err(). Each net is tagged with the worker lane that produced
// it so the trace shows the pool's parallel tracks; the lane feeds
// telemetry only — results stay bit-identical across worker counts.
func buildNets(ctx context.Context, gen *candidateGen, todo []int, hnets []signal.HyperNet, trees [][]steiner.Tree, envs [][]geom.Segment, nets []selection.Net, cfg Config, ws *Workspace) error {
	var hist *obs.Histogram
	if gen.hist {
		hist = cfg.Obs.Histogram(gen.span)
	}
	return parallel.ForEachScratchContext(ctx, ws.arenaOf(), len(todo), cfg.Workers, func(w int, sc *parallel.Scratch, k int) error {
		i := todo[k]
		var sp obs.Span
		if cfg.Obs != nil {
			sp = cfg.Obs.Span(gen.span, obs.WorkerLane(w), obs.I("net", i))
		}
		var tr []steiner.Tree
		var env []geom.Segment
		if gen.trees {
			tr, env = trees[i], envs[i]
		}
		net, err := gen.net(i, hnets[i], tr, env, cfg, grabScratch(sc, cfg.Obs))
		if err != nil {
			return err
		}
		nets[i] = net
		if cfg.Obs != nil {
			hist.RecordDuration(sp.End(obs.I("cands", len(net.Cands))))
		}
		return nil
	})
}

// opticalNet is the GLOW-style generator: the all-optical labelling of the
// primary baseline (when it meets the loss budget against the crossing
// environment) followed by the RSMT electrical fallback.
func opticalNet(_ int, hn signal.HyperNet, trees []steiner.Tree, env []geom.Segment, cfg Config, scr *workerScratch) (selection.Net, error) {
	in := codesign.Input{Tree: trees[0], Bits: hn.BitCount(), Lib: cfg.Lib, Elec: cfg.Elec, Env: env}
	var cands []codesign.Candidate
	if cand, feasible := codesign.EvaluateWS(in, scr.fillLabels(len(trees[0].Edges), codesign.Optical), scr.codesign); feasible {
		cands = append(cands, cand)
	}
	fallback, err := electricalCandidate(hn, cfg, scr)
	if err != nil {
		return selection.Net{}, err
	}
	return selection.Net{Bits: hn.BitCount(), Cands: append(cands, fallback)}, nil
}

// electricalNet is the Streak-style generator: the RSMT electrical route as
// the net's only candidate.
func electricalNet(_ int, hn signal.HyperNet, _ []steiner.Tree, _ []geom.Segment, cfg Config, scr *workerScratch) (selection.Net, error) {
	cand, err := electricalCandidate(hn, cfg, scr)
	if err != nil {
		return selection.Net{}, err
	}
	return selection.Net{Bits: hn.BitCount(), Cands: []codesign.Candidate{cand}}, nil
}
