package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/geom"
	"operon/internal/obs"
	"operon/internal/selection"
	"operon/internal/signal"
	"operon/internal/wdm"
)

const (
	// A run repeats its set-up at least setupReps times and, while the
	// repeats have taken less than setupMinTotal, up to setupMaxReps times;
	// setup_s is their median. A cheap set-up thus rests on more samples,
	// enough to ride out the machine's second-to-second speed noise.
	setupReps     = 3
	setupMaxReps  = 25
	setupMinTotal = 3 * time.Second
	// minTailOps is the operation count a p90 needs (minBeyond above it).
	minTailOps = 100
	// tailQ is the tail percentile of mega-cold, exact-ilp and serve-open.
	tailQ = 0.9
	// ilpGroups scales the I3 spec for exact-ilp: I3's 30-bit single-region
	// buses at 120 instead of 168 groups, so one exact solve takes about
	// 0.1–0.3 s and a run holds the 100 solves its p90 needs.
	ilpGroups = 120
	// ilpRefDesigns is the fixed prefix of exact-ilp designs whose summed
	// power and WDM count form the run's quality guard.
	ilpRefDesigns = 8
	// Latency limits for goodput: an operation slower than its limit is not
	// counted as good.
	megaLimit = 60 * time.Second
	ilpLimit  = 2 * time.Second
)

// specOf returns the named benchgen spec with its seed overridden; the
// design is named after both.
func specOf(name string, seed int64) benchgen.Spec {
	s, err := benchgen.SpecByName(name)
	if err != nil {
		panic(err) // every name passed here is a constant of this package
	}
	s.Name = fmt.Sprintf("%s-%d", name, seed)
	s.Seed = seed
	return s
}

// megaSpec returns the I6 mega-case spec of a seed.
func megaSpec(seed int64) benchgen.Spec { return specOf("I6", seed) }

// ilpSpec returns the spec of the k-th exact-ilp design of a run.
func ilpSpec(seed int64, k int) benchgen.Spec {
	s := specOf("I3", seed*1000+int64(k))
	s.Groups = ilpGroups
	return s
}

func flowConfig(nproc int, mode operon.Mode) operon.Config {
	cfg := operon.DefaultConfig()
	cfg.Workers = nproc
	cfg.Mode = mode
	cfg.ILPTimeLimit = 0 // exact: solved to proven optimality, no clock
	return cfg
}

// quality is the deterministic outcome a reference table pins per seed.
type quality struct {
	PowerMW  float64 `json:"power_mw"`
	WDMsUsed int     `json:"wdms_used"`
}

// coldSolve runs one cold solve of d (a run-local workspace, nothing reused
// from earlier solves) and returns the result with its wall time. When tr
// is non-nil the flow reports its counters into it.
func coldSolve(d signal.Design, cfg operon.Config, tr *obs.Tracer) (*operon.Result, time.Duration, error) {
	cfg.Obs = tr
	start := time.Now()
	res, err := operon.RunContextWith(context.Background(), d, cfg, nil)
	return res, time.Since(start), err
}

// checkSolve applies the per-result checks every library solve must pass.
func checkSolve(res *operon.Result, cfg operon.Config) error {
	if res.Degraded {
		return fmt.Errorf("degraded (%s)", res.StopReason)
	}
	if res.ILP != nil && res.ILP.TimedOut {
		return fmt.Errorf("ILP stopped before optimality")
	}
	if issues := operon.Verify(res, cfg); len(issues) > 0 {
		return fmt.Errorf("Verify: %d issues, first: %v", len(issues), issues[0])
	}
	return nil
}

// libraryLoop drives the solve-per-operation workloads. design(k) returns
// the k-th input; the loop solves inputs until the window is used up (an
// operation that would overrun it is not started) and minOps have run. In
// a traced run every operation is a pair: a solve with the flow's tracer
// attached, replayed layer by layer, then the same input untraced; the
// difference of the two wall times is the tracing overhead.
func libraryLoop(r *run, cfg operon.Config, minOps, refN int, limit time.Duration, design func(k int) signal.Design) {
	var lats, allocs, overhead []float64
	var allocMB, pauseMS float64
	var last *operon.Result
	var good int
	series := map[string][]float64{}
	var ref quality
	peak := startHeapPeak()
	start := time.Now()
	var busy time.Duration
	// op runs operation k: the timed solve and its checks, then, traced,
	// the layer replay and the untraced twin, all under one root span.
	op := func(k int) {
		d := design(k)
		r.attempted++
		req := fmt.Sprintf("%s-%d", r.workload, k)
		var tr *obs.Tracer
		if r.traced {
			tr = obs.New(nil)
		}
		runtime.GC() // every solve starts from a collected heap, as a cold one would
		root := r.rec.open("op/solve", req, 0, 1)
		defer r.rec.end(root)
		rw := startRuntimeWindow()
		var res *operon.Result
		var err error
		lat := r.rec.timed("operon.RunContextWith", req, root, 1, func() { res, _, err = coldSolve(d, cfg, tr) })
		a, p := rw.end()
		allocs = append(allocs, a)
		allocMB, pauseMS = allocMB+a, pauseMS+p
		last = res
		busy += lat
		if err == nil {
			err = checkSolve(res, cfg)
		}
		if err != nil {
			r.opFailed("op %d: %v", k, err)
			return
		}
		if k < refN {
			ref.PowerMW += res.PowerMW
			ref.WDMsUsed += res.WDMStats.FinalWDMs
		}
		lats = append(lats, ms(lat))
		if lat <= limit {
			good++
		}
		if !r.traced {
			return
		}
		flowLayers(series, res, lat, counterValues(tr))
		if err := replay(r, series, d, res, cfg, req, root); err != nil {
			r.opFailed("op %d: replay: %v", k, err)
			return
		}
		_, plain, err := coldSolve(d, cfg, nil)
		if err != nil {
			r.opFailed("op %d: untraced twin: %v", k, err)
			return
		}
		overhead = append(overhead, ms(lat)-ms(plain))
	}
	for k := 0; ; k++ {
		elapsed := time.Since(start)
		if k >= minOps && (elapsed >= r.window || (k > 0 && elapsed+elapsed/time.Duration(k) > r.window)) {
			break
		}
		op(k)
	}
	r.layer["runtime.peak_heap_mb"] = peak.stop()
	r.e2e["retained_heap_mb"] = liveHeapMB() // the last result and the inputs are still held
	runtime.KeepAlive(last)
	runtime.KeepAlive(design)
	r.e2e["alloc_mb"] = median(allocs)
	r.e2e["solve_s"] = median(lats) / 1e3
	r.e2e["op_p50_ms"] = median(lats)
	r.e2e["op_tail_ms"] = tail(lats, tailQ)
	r.e2e["goodput_per_s"] = frac(float64(good), busy.Seconds())
	r.e2e["power_mw"] = ref.PowerMW
	r.e2e["wdms_used"] = float64(ref.WDMsUsed)
	r.setLayerMedians(series)
	r.layer["trace.overhead_ms"] = median(overhead)
	r.layer["runtime.alloc_mb"] = allocMB
	r.layer["runtime.gc_pause_ms"] = pauseMS
	checkRef(r, ref)
}

// checkRef compares the run's quality guard with the committed reference
// for its seed, when the table has one.
func checkRef(r *run, got quality) {
	want, ok := references[r.workload][strconv.FormatInt(r.seed, 10)]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no reference for seed %d; the reference check is skipped\n", r.workload, r.seed)
		return
	}
	if got != want {
		r.fail("quality %+v differs from the reference %+v for seed %d", got, want, r.seed)
	}
}

// flowLayers records the per-layer figures the flow reports itself: its
// stage times, candidate counts and solver counters.
func flowLayers(series map[string][]float64, res *operon.Result, wall time.Duration, counters map[string]float64) {
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	add("signal.process_ms", ms(res.Times.Process))
	add("codesign.candidates_ms", ms(res.Times.Candidates))
	cands := 0
	for _, n := range res.Nets {
		cands += len(n.Cands)
	}
	add("codesign.cands_per_net", frac(float64(cands), float64(len(res.Nets))))
	add("operon.unstaged_ms", ms(wall-res.Times.Total()))
	if res.LR != nil {
		add("selection.lr_iters", float64(res.LR.Iters))
	}
	add("wdm.connections", float64(len(res.Connections)))
	for c, v := range counters {
		add(c, v)
	}
}

// replay re-runs the selection and WDM layers of a finished solve through
// their public functions, each timed from outside under its own span, and
// checks that every replayed output equals the flow's own.
func replay(r *run, series map[string][]float64, d signal.Design, res *operon.Result, cfg operon.Config, req string, parent int) error {
	add := func(name string, v time.Duration) { series[name] = append(series[name], ms(v)) }
	var err error

	var hnets []signal.HyperNet
	r.rec.timed("signal.Process", req, parent, 1, func() {
		hnets, err = signal.Process(d, signal.ProcessConfig{
			WDMCapacity:         cfg.Lib.WDMCapacity,
			PinMergeThresholdCM: cfg.PinMergeThresholdCM,
			Seed:                cfg.Seed,
			Workers:             cfg.Workers,
		})
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(hnets, res.HyperNets) {
		return fmt.Errorf("signal.Process: %d hyper nets differ from the flow's %d", len(hnets), len(res.HyperNets))
	}

	var inst *selection.Instance
	add("selection.instance_ms", r.rec.timed("selection.NewInstance", req, parent, 1, func() {
		inst, err = selection.NewInstance(res.Nets, cfg.Lib)
	}))
	if err != nil {
		return err
	}

	var sel selection.Selection
	if cfg.Mode == operon.ModeILP {
		var ir selection.ILPResult
		add("selection.ilp_ms", r.rec.timed("selection.SolveILP", req, parent, 1, func() {
			ir, err = selection.SolveILP(inst, selection.ILPOptions{Workers: cfg.Workers, MaxNodes: cfg.ILPMaxNodes})
		}))
		sel = ir.Selection
	} else {
		var lr selection.LRResult
		add("selection.lr_ms", r.rec.timed("selection.SolveLR", req, parent, 1, func() {
			lr, err = selection.SolveLR(inst, selection.LROptions{Workers: cfg.Workers})
		}))
		sel = lr.Selection
	}
	if err != nil {
		return err
	}
	if math.Float64bits(sel.PowerMW) != math.Float64bits(res.PowerMW) || !reflect.DeepEqual(sel.Choice, res.Selection.Choice) {
		return fmt.Errorf("selection: replayed power %v differs from the flow's %v", sel.PowerMW, res.PowerMW)
	}

	var conns []wdm.Connection
	for i, j := range sel.Choice {
		for _, seg := range geom.MergeCollinear(res.Nets[i].Cands[j].OpticalSegs) {
			conns = append(conns, wdm.Connection{Seg: seg, Bits: res.Nets[i].Bits, Net: i})
		}
	}
	if !reflect.DeepEqual(conns, res.Connections) {
		return fmt.Errorf("wdm: %d replayed connections differ from the flow's %d", len(conns), len(res.Connections))
	}
	wcfg := wdm.Config{
		Capacity:        cfg.Lib.WDMCapacity,
		MinSpacingCM:    cfg.Lib.CrosstalkMinDistCM,
		MaxAssignDistCM: cfg.Lib.AssignMaxDistCM,
		Workers:         cfg.Workers,
	}
	var pl wdm.Placement
	add("wdm.place_ms", r.rec.timed("wdm.Place", req, parent, 1, func() { pl, err = wdm.Place(conns, wcfg) }))
	if err != nil {
		return err
	}
	var as wdm.Assignment
	add("wdm.assign_ms", r.rec.timed("wdm.AssignContext", req, parent, 1, func() {
		as, err = wdm.AssignContext(context.Background(), conns, pl, wcfg)
	}))
	if err != nil {
		return err
	}
	if as.Used() != res.WDMStats.FinalWDMs {
		return fmt.Errorf("wdm: replayed assignment uses %d WDMs, the flow %d", as.Used(), res.WDMStats.FinalWDMs)
	}
	return nil
}

// setup repeats one set-up (see setupReps) and records the median time as
// setup_s. When reset is non-nil it runs before every repeat but the first,
// outside the timing, to tear down what the previous one left running.
func (r *run) setup(once, reset func() error) error {
	var times []float64
	var total time.Duration
	for i := 0; i < setupReps || (total < setupMinTotal && i < setupMaxReps); i++ {
		if i > 0 && reset != nil {
			if err := reset(); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := once(); err != nil {
			return err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
	}
	r.e2e["setup_s"] = median(times)
	return nil
}

// warmSolve solves a design that is not among the measured inputs, so code
// paths and lazily built tables are warm when timing starts. Warm-up
// designs are fixed, the same for every seed, so that set-up does the same
// work whatever the seed.
func warmSolve(spec benchgen.Spec, cfg operon.Config) error {
	d, err := benchgen.Generate(spec)
	if err != nil {
		return err
	}
	res, _, err := coldSolve(d, cfg, nil)
	if err != nil {
		return err
	}
	return checkSolve(res, cfg)
}

// runMegaCold solves the I6-spec mega case cold: one design per seed,
// Workers = nproc, as many whole solves as fit the window (at least one).
// Set-up builds the design and warms up on a fixed I2-spec solve.
func runMegaCold(r *run) error {
	cfg := flowConfig(r.nproc, operon.ModeLR)
	var d signal.Design
	err := r.setup(func() (err error) {
		if d, err = benchgen.Generate(megaSpec(r.seed)); err != nil {
			return err
		}
		return warmSolve(specOf("I2", -1), cfg)
	}, nil)
	if err != nil {
		return err
	}
	libraryLoop(r, cfg, 1, 1, megaLimit, func(int) signal.Design { return d })
	return nil
}

// runExactILP solves a stream of I3-shaped designs exactly: ILP mode, no
// time limit, so every run does the same work for the same seed. Set-up
// builds the reference designs and warms up on one fixed exact solve.
func runExactILP(r *run) error {
	cfg := flowConfig(r.nproc, operon.ModeILP)
	var designs []signal.Design
	err := r.setup(func() error {
		designs = designs[:0]
		for k := 0; k < ilpRefDesigns; k++ {
			d, err := benchgen.Generate(ilpSpec(r.seed, k))
			if err != nil {
				return err
			}
			designs = append(designs, d)
		}
		return warmSolve(ilpSpec(-1, 0), cfg) // no seed >= 0 measures this design
	}, nil)
	if err != nil {
		return err
	}
	minOps := minTailOps
	if r.traced {
		minOps = minTailOps / 2
	}
	libraryLoop(r, cfg, minOps, ilpRefDesigns, ilpLimit, func(k int) signal.Design {
		if k < len(designs) {
			return designs[k]
		}
		d, err := benchgen.Generate(ilpSpec(r.seed, k))
		if err != nil {
			panic(err) // the spec is fixed and valid; only a bug lands here
		}
		return d
	})
	return nil
}
