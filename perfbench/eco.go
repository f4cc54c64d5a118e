package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/signal"
)

const (
	// ecoDesigns is how many I5-spec designs the designer keeps open and
	// edits in turn. One design's edit cost varies by about 20 % from seed
	// to seed; spreading the edits over four designs halves that spread.
	ecoDesigns = 4
	// ecoScriptLen is the length of each design's generated move script; a
	// run uses a prefix of it.
	ecoScriptLen = 500
	// ecoTailQ is eco-edit's tail percentile and ecoMinEdits the edit count
	// it needs (minBeyond above it). An edit costs about 0.3 s plus 0.13 s
	// of verification, so the 100 edits of a p90 would make eco-edit the
	// longest run by far.
	ecoTailQ    = 0.8
	ecoMinEdits = 50
	// ecoLimit is the latency limit of one edit for goodput.
	ecoLimit = 2 * time.Second
	// ecoReplayEvery replays the layers of every n-th traced edit.
	ecoReplayEvery = 3
	// ecoTracedPairs is the number of (traced, untraced) edit pairs of a
	// traced run.
	ecoTracedPairs = 30
)

// ecoColdChecks lists the steps (the index of an edit among its own
// design's edits) after which the edited session's result is compared with
// a cold solve of its design, outside the timed edit. Every design is
// checked at each step, so an untraced run (at least ecoMinEdits edits)
// makes ecoDesigns × 2 checks.
var ecoColdChecks = map[int]bool{2: true, 11: true}

// layerCounters are the flow counters a traced operation reports.
var layerCounters = []string{"wdm.arcs", "mcmf.augmentations", "lp.pivots", "lp.refactors", "lp.solves", "lp.presolve_rows", "ilp.nodes"}

// ecoSpec returns the I5 spec of design j of a seed.
func ecoSpec(seed int64, j int) benchgen.Spec { return specOf("I5", seed*100+int64(j)) }

// ecoScript returns the edit script of design j: one-pin moves, one per
// edit.
func ecoScript(d signal.Design, seed int64, j int) ([][]operon.Edit, error) {
	ops := benchgen.MoveScript(d, ecoScriptLen, seed*100+int64(j))
	script := make([][]operon.Edit, len(ops))
	for i, op := range ops {
		e, err := operon.EditsFromOps(ops[i : i+1])
		if err != nil {
			return nil, fmt.Errorf("edit %d (%+v): %w", i, op, err)
		}
		script[i] = e
	}
	return script, nil
}

// openSession builds a design and opens a session on it with its cold
// solve, returning the cold solve's result and time.
func openSession(spec benchgen.Spec, cfg operon.Config) (*operon.Session, *operon.Result, time.Duration, error) {
	d, err := benchgen.Generate(spec)
	if err != nil {
		return nil, nil, 0, err
	}
	s := operon.NewSession(d, cfg)
	start := time.Now()
	res, _, err := s.Resolve(context.Background())
	if err != nil {
		return nil, nil, 0, err
	}
	return s, res, time.Since(start), nil
}

// counterValues reads the layer counters of tr.
func counterValues(tr *obs.Tracer) map[string]float64 {
	m := map[string]float64{}
	for _, c := range layerCounters {
		m[c] = float64(tr.Counter(c).Value())
	}
	return m
}

// ecoDesk is the designer's open work: one session per design, each with
// its edit script.
type ecoDesk struct {
	sessions []*operon.Session
	scripts  [][][]operon.Edit
}

// openDesk opens a session on every design of the seed. It returns the
// cold-open times and the summed quality of the unedited designs.
func openDesk(seed int64, cfg operon.Config) (*ecoDesk, []float64, quality, error) {
	desk := &ecoDesk{}
	var colds []float64
	var q quality
	for j := 0; j < ecoDesigns; j++ {
		s, res, cold, err := openSession(ecoSpec(seed, j), cfg)
		if err != nil {
			return nil, nil, quality{}, err
		}
		if err := checkSolve(res, cfg); err != nil {
			return nil, nil, quality{}, fmt.Errorf("cold open of design %d: %w", j, err)
		}
		script, err := ecoScript(s.Design(), seed, j)
		if err != nil {
			return nil, nil, quality{}, err
		}
		desk.sessions = append(desk.sessions, s)
		desk.scripts = append(desk.scripts, script)
		colds = append(colds, cold.Seconds())
		q.PowerMW += res.PowerMW
		q.WDMsUsed += res.WDMStats.FinalWDMs
	}
	return desk, colds, q, nil
}

// runEcoEdit drives one closed-loop designer: each operation applies one
// one-pin move to one of ecoDesigns I5-spec designs, taken in turn, each
// open in an operon.Session, and re-solves it. A traced run keeps a second,
// untraced desk over the same designs and scripts, edited in lockstep with
// the traced one.
func runEcoEdit(r *run) error {
	cfg := flowConfig(r.nproc, operon.ModeLR)
	tcfg := cfg
	if r.traced {
		tcfg.Obs = obs.New(nil)
	}
	var desk *ecoDesk
	var colds []float64
	var q quality
	err := r.setup(func() error {
		d, c, qq, err := openDesk(r.seed, tcfg)
		desk, q = d, qq
		colds = append(colds, c...)
		return err
	}, nil)
	if err != nil {
		return err
	}
	r.e2e["solve_s"] = median(colds)
	r.e2e["power_mw"] = q.PowerMW
	r.e2e["wdms_used"] = float64(q.WDMsUsed)
	checkRef(r, q)
	var twin *ecoDesk
	minOps := ecoMinEdits
	if r.traced {
		if twin, _, _, err = openDesk(r.seed, cfg); err != nil {
			return err
		}
		minOps = ecoTracedPairs
	}

	var lats, allocs, overhead, wdmReused []float64
	var busy time.Duration
	good := 0
	series := map[string][]float64{}
	var allocMB, pauseMS float64
	peak := startHeapPeak()
	// edit runs edit k: the timed Apply and Resolve and their checks, then,
	// traced, the layer replay and the untraced twin, under one root span.
	edit := func(k int) {
		j, step := k%ecoDesigns, k/ecoDesigns
		sess, script := desk.sessions[j], desk.scripts[j][step]
		r.attempted++
		req := fmt.Sprintf("edit-%d", k)
		root := r.rec.open("op/edit", req, 0, 1)
		defer r.rec.end(root)
		var res *operon.Result
		var st operon.ResolveStats
		var before map[string]float64
		if r.traced {
			before = counterValues(tcfg.Obs)
		}
		var err error
		rw := startRuntimeWindow()
		t0 := time.Now()
		apply := r.rec.timed("session.Apply", req, root, 1, func() { _, err = sess.Apply(script...) })
		if err == nil {
			r.rec.timed("session.Resolve", req, root, 1, func() { res, st, err = sess.Resolve(context.Background()) })
		}
		lat := time.Since(t0)
		a, p := rw.end()
		allocs = append(allocs, a)
		allocMB, pauseMS = allocMB+a, pauseMS+p
		busy += lat
		if err == nil {
			err = checkSolve(res, cfg)
		}
		if err != nil {
			r.opFailed("edit %d: %v", k, err)
			return
		}
		if ecoColdChecks[step] {
			cold, _, err := coldSolve(sess.Design(), cfg, nil)
			if err == nil {
				err = sameResult(res, cold)
			}
			if err != nil {
				r.opFailed("edit %d: session result vs cold solve: %v", k, err)
				return
			}
		}
		lats = append(lats, ms(lat))
		if lat <= ecoLimit {
			good++
		}
		if !r.traced {
			return
		}
		counters := counterValues(tcfg.Obs)
		for c := range counters {
			counters[c] -= before[c]
		}
		flowLayers(series, res, lat-apply, counters)
		add := func(name string, v float64) { series[name] = append(series[name], v) }
		add("session.apply_ms", ms(apply))
		add("session.resolve_ms", ms(lat-apply))
		add("session.overhead_ms", ms(lat-apply-res.Times.Total()))
		add("session.cands_reused_frac", frac(float64(st.CandsReused), float64(st.CandsReused+st.CandsRebuilt)))
		if st.WDMReused {
			wdmReused = append(wdmReused, 1)
		} else {
			wdmReused = append(wdmReused, 0)
		}
		if k%ecoReplayEvery == 0 {
			if err := replay(r, series, sess.Design(), res, cfg, req, root); err != nil {
				r.opFailed("edit %d: replay: %v", k, err)
				return
			}
		}
		t1 := time.Now()
		_, err = twin.sessions[j].Apply(script...)
		if err == nil {
			res, _, err = twin.sessions[j].Resolve(context.Background())
		}
		plain := time.Since(t1)
		if err == nil {
			err = checkSolve(res, cfg)
		}
		if err != nil {
			r.opFailed("edit %d: untraced twin: %v", k, err)
			return
		}
		overhead = append(overhead, ms(lat)-ms(plain))
	}
	start := time.Now()
	for k := 0; k < ecoDesigns*ecoScriptLen && (k < minOps || time.Since(start) < r.window); k++ {
		edit(k)
	}
	r.layer["runtime.peak_heap_mb"] = peak.stop()
	r.e2e["retained_heap_mb"] = liveHeapMB() // the sessions are still open
	runtime.KeepAlive(desk)
	r.e2e["alloc_mb"] = median(allocs)
	r.e2e["op_p50_ms"] = median(lats)
	r.e2e["op_tail_ms"] = tail(lats, ecoTailQ)
	r.e2e["goodput_per_s"] = frac(float64(good), busy.Seconds())
	r.setLayerMedians(series)
	r.layer["session.wdm_reused_frac"] = frac(sum(wdmReused), float64(len(wdmReused)))
	r.layer["trace.overhead_ms"] = median(overhead)
	r.layer["runtime.alloc_mb"] = allocMB
	r.layer["runtime.gc_pause_ms"] = pauseMS
	return nil
}

// sameResult reports how two results differ in anything but timing: the
// session's incremental result must be bit-identical to a cold solve.
func sameResult(a, b *operon.Result) error {
	switch {
	case math.Float64bits(a.PowerMW) != math.Float64bits(b.PowerMW):
		return fmt.Errorf("power %v vs %v", a.PowerMW, b.PowerMW)
	case !reflect.DeepEqual(a.Selection, b.Selection):
		return fmt.Errorf("selections differ")
	case !reflect.DeepEqual(a.HyperNets, b.HyperNets):
		return fmt.Errorf("hyper nets differ")
	case !reflect.DeepEqual(a.Nets, b.Nets):
		return fmt.Errorf("candidate sets differ")
	case !reflect.DeepEqual(a.Connections, b.Connections):
		return fmt.Errorf("connections differ")
	case !reflect.DeepEqual(a.Placement, b.Placement):
		return fmt.Errorf("WDM placements differ")
	case !reflect.DeepEqual(a.Assignment, b.Assignment):
		return fmt.Errorf("WDM assignments differ")
	case a.WDMStats != b.WDMStats:
		return fmt.Errorf("WDM stats %+v vs %+v", a.WDMStats, b.WDMStats)
	}
	return nil
}
