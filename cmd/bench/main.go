// Command bench is the benchmark-regression harness: it runs the
// Table-1 / Fig-3(b) / Fig-8 workloads plus the per-stage benchmarks
// (Lagrangian pricing, BI1S, the LP engines revised-vs-dense, the exact
// ILP selection with per-node LP accounting, min-cost max-flow)
// programmatically and emits a machine-readable BENCH_<date>.json with
// ns/op, allocs/op, bytes/op, and the wall-clock speedups of the parallel
// and memoized paths against their sequential / uncached baselines.
// Committed outputs establish the performance trajectory across PRs.
//
// The I6–I8 mega cases (20k–100k nets, cm-scale dies) sit beyond the
// paper's Table 1; -mega selects which of them run (default I6 — the
// largest that fits a single-core CI budget). Unselected mega entries are
// listed in the report's "skipped" array so cmd/benchcmp knows the omission
// was deliberate.
//
// Usage:
//
//	go run ./cmd/bench [-case I2] [-out BENCH_2006-01-02.json] [-quick]
//	                   [-mega I6,I7,I8|all|none] [-mega-nodes N]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/geom"
	"operon/internal/ilp"
	"operon/internal/lp"
	"operon/internal/mcmf"
	"operon/internal/obs"
	"operon/internal/optics/bpm"
	"operon/internal/parallel"
	"operon/internal/selection"
	"operon/internal/serve"
	"operon/internal/signal"
	"operon/internal/steiner"
	"operon/internal/wdm"
)

// Entry is one benchmark measurement.
type Entry struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// PeakHeapBytes is the maximum live heap (runtime.MemStats.HeapAlloc)
	// sampled while the benchmark ran — the measure that matters for the
	// mega cases, where footprint, not ns/op, is the scaling constraint.
	// benchcmp gates its growth above an absolute floor.
	PeakHeapBytes int64 `json:"peak_heap_bytes,omitempty"`
	// NodesPerSec is branch-and-bound throughput (ilp.nodes per second of
	// solve wall clock); only ILP entries fill it.
	NodesPerSec float64 `json:"ilp_nodes_per_sec,omitempty"`
}

// ILPStats describes one exact selection solve: branch-and-bound node
// count and the LP-engine work behind it (warm-started relaxations).
type ILPStats struct {
	Nodes          int     `json:"nodes"`
	LPSolves       int     `json:"lp_solves"`
	LPTimeNS       int64   `json:"lp_time_ns"`
	LPSolvesToNode float64 `json:"lp_solves_per_node"`
	LPNsPerSolve   float64 `json:"lp_ns_per_solve"`
	NodesPerSec    float64 `json:"nodes_per_sec"`
}

// Report is the JSON document cmd/bench emits.
type Report struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GoMaxProcs is the scheduler's effective parallelism for the run
	// (runtime.GOMAXPROCS). Parallel-vs-sequential speedups only mean
	// something when it exceeds 1 — see SpeedupsNA.
	GoMaxProcs int     `json:"gomaxprocs"`
	Case       string  `json:"case"`
	Benchmarks []Entry `json:"benchmarks"`
	// ILP carries the per-node LP accounting of the ILP/Selection entry.
	ILP *ILPStats `json:"ilp,omitempty"`
	// Speedups relate pairs of benchmark entries: parallel vs sequential
	// and memoized vs uncached. Values > 1 are faster. Parallel-stage
	// speedups scale with the core count of the runner (CPUs above).
	// encoding/json marshals map keys in sorted order, so the emitted
	// document is byte-stable across runs of the same build.
	Speedups map[string]float64 `json:"speedups"`
	// SpeedupsNA lists speedup pairs that were not measured because they
	// cannot mean anything on this runner — parallel-vs-sequential
	// comparisons on a single-CPU machine measure pool overhead, not
	// parallelism, and would read as a regression.
	SpeedupsNA []string `json:"speedups_na,omitempty"`
	// Skipped lists benchmark entries this run intentionally did not
	// execute (mega cases outside the -mega selection). benchcmp treats a
	// baseline entry missing from a new report as a failure unless the new
	// report lists it here — dropping a benchmark must be explicit, never
	// an accident.
	Skipped []string `json:"skipped,omitempty"`
	// Acknowledged lists benchmark entries whose allocation profile changed
	// deliberately in this run (an algorithmic trade, e.g. presolve buying
	// fewer pivots with more working memory). benchcmp reports them but does
	// not gate them. Populated via -ack, so the waiver is a reviewed,
	// committed decision riding in the baseline itself.
	Acknowledged []string `json:"acknowledged,omitempty"`
	// Counters is the name-sorted obs counter snapshot of one untimed
	// instrumented pass over the solver workloads: LP pivots and
	// refactorisations, branch-and-bound nodes, min-cost-flow
	// augmentations, WDM arcs, and the BPM cache traffic. These are
	// behaviour measures, independent of machine speed — `make
	// bench-compare` diffs them across reports to catch algorithmic
	// regressions that wall-clock noise would hide. All entries except the
	// benchtime-dependent bpm.cache_* pair are deterministic.
	Counters []obs.CounterValue `json:"counters,omitempty"`
	// Histograms summarises the per-stage latency distributions of one
	// untimed instrumented flow run (its own tracer, so Counters above stay
	// comparable across reports): clustering, baselines, candidate
	// generation, selection, WDM, and the FD-BPM leaf. Wall-clock
	// quantiles are machine-dependent like ns/op; benchcmp reports them but
	// never gates on them.
	Histograms []HistEntry `json:"histograms,omitempty"`
}

// HistEntry is one per-stage latency histogram summary in the report.
type HistEntry struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

func main() {
	testing.Init() // registers test.benchtime before flag.Parse
	caseName := flag.String("case", "I2", "Table-1 case for the flow benchmarks")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	quick := flag.Bool("quick", false, "single-iteration run (smoke test, noisy numbers)")
	mega := flag.String("mega", "I6", "comma-separated mega cases to run (I6,I7,I8; 'all', or '' to skip; skipped cases are listed in the report)")
	megaNodes := flag.Int("mega-nodes", 2000, "branch-and-bound node budget for the mega ILP entries")
	ack := flag.String("ack", "", "comma-separated benchmark names whose allocation-profile change is a deliberate trade (recorded in the report; benchcmp reports but does not gate them)")
	speedupOnly := flag.Bool("speedup-only", false, "run only the parallel-vs-sequential pairs (the multicore CI gate's fast path)")
	benchtime := flag.String("benchtime", "", "per-benchmark budget passed to testing (e.g. 3x or 2s; overrides -quick's 1x)")
	minPar := flag.Float64("min-par-speedup", 0, "fail when a parallel-vs-sequential speedup falls below this factor (0 = off; skipped with a notice when GOMAXPROCS=1)")
	flag.Parse()

	if *quick {
		// testing.Benchmark honours -test.benchtime via the flag package.
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			fatal(err)
		}
	}
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fatal(err)
		}
	}

	// speedup guards against a zero denominator (possible under -quick when
	// a fast benchmark rounds to 0 ns/op) so the JSON never carries NaN.
	speedup := func(rep *Report, name string, num, den float64) {
		if den > 0 {
			rep.Speedups[name] = num / den
		}
	}
	rep := Report{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Case:       *caseName,
		Speedups:   map[string]float64{},
	}
	for _, name := range strings.Split(*ack, ",") {
		if name = strings.TrimSpace(name); name != "" {
			rep.Acknowledged = append(rep.Acknowledged, name)
		}
	}
	// parSpeedup records a parallel-vs-sequential speedup, or marks it n/a
	// on a single-CPU runner where the comparison could only measure pool
	// overhead.
	parSpeedup := func(rep *Report, name string, num, den float64) {
		if rep.GoMaxProcs <= 1 {
			rep.SpeedupsNA = append(rep.SpeedupsNA, name)
			return
		}
		speedup(rep, name, num, den)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rep.Date)
	}
	// Fail on an unwritable output path now, not after minutes of benchmarks.
	if f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644); err != nil {
		fatal(err)
	} else {
		f.Close()
	}
	// Likewise fail on an unknown -mega selection up front.
	megaSel := map[string]bool{}
	switch *mega {
	case "", "none":
	case "all":
		for _, sp := range benchgen.MegaSpecs() {
			megaSel[sp.Name] = true
		}
	default:
		for _, name := range strings.Split(*mega, ",") {
			if name = strings.TrimSpace(name); name != "" {
				megaSel[name] = true
			}
		}
		known := map[string]bool{}
		for _, sp := range benchgen.MegaSpecs() {
			known[sp.Name] = true
		}
		for name := range megaSel {
			if !known[name] {
				fatal(fmt.Errorf("unknown mega case %q (have I6, I7, I8)", name))
			}
		}
	}

	d := mustDesign(*caseName)
	cfg := operon.DefaultConfig()
	// full is the normal run; -speedup-only keeps just the parallel-vs-
	// sequential pairs so the multicore CI job can gate them cheaply.
	full := !*speedupOnly
	// Shared between the full-run sections below (assigned in one, read in
	// another).
	var conns []wdm.Connection
	var wcfg wdm.Config
	var ilpInst *selection.Instance

	record := func(name string, fn func(b *testing.B)) Entry {
		fmt.Fprintf(os.Stderr, "bench: %s\n", name)
		sampler := startHeapSampler()
		r := testing.Benchmark(fn)
		peak := sampler.stop()
		e := Entry{
			Name:          name,
			N:             r.N,
			NsPerOp:       float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:   r.AllocsPerOp(),
			BytesPerOp:    r.AllocedBytesPerOp(),
			PeakHeapBytes: peak,
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		return e
	}
	// setNodesPerSec back-fills the ILP throughput on the entry just
	// recorded (entries are appended, so the last one is the target).
	setNodesPerSec := func(nodes int, dur time.Duration) {
		if dur <= 0 || len(rep.Benchmarks) == 0 {
			return
		}
		rep.Benchmarks[len(rep.Benchmarks)-1].NodesPerSec =
			float64(nodes) / dur.Seconds()
	}
	runFlow := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			c := cfg
			c.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := operon.RunContextWith(context.Background(), d, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// One untimed warm-up flow run fills the process-global caches (BPM
	// simulations, memoized geometry) so every benchmark below measures
	// steady state. This matters most under -quick, where a single
	// iteration would otherwise charge the cold-start allocations of those
	// caches to whichever benchmark runs first and make the allocation
	// profile incomparable with a full run's amortised numbers.
	if _, err := operon.RunContextWith(context.Background(), d, cfg, nil); err != nil {
		fatal(err)
	}

	// Table 1: the OPERON-LR flow, sequential vs worker-pool.
	seq := record("Table1/OPERON-LR/"+*caseName+"/Workers1", runFlow(1))
	par := record("Table1/OPERON-LR/"+*caseName+"/WorkersN", runFlow(0))
	parSpeedup(&rep, "operon-lr workersN vs workers1", seq.NsPerOp, par.NsPerOp)

	if full {
		ecfg, ocfg := cfg, cfg
		ecfg.Mode, ocfg.Mode = operon.ModeElectrical, operon.ModeOptical
		record("Table1/Electrical/"+*caseName, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := operon.RunContextWith(context.Background(), d, ecfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("Table1/Optical/"+*caseName, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := operon.RunContextWith(context.Background(), d, ocfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})

		// Fig 3(b): the FD-BPM cascade, uncached solver vs process-wide cache.
		bcfg := bpm.DefaultConfig()
		uncached := record("Fig3b/Uncached", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bpm.SimulateUncached(bcfg, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Warm the cache so Fig3b/Cached measures pure hits even under -quick's
		// single iteration; without this the lone iteration would be the miss.
		if _, err := bpm.Simulate(bcfg, 2); err != nil {
			fatal(err)
		}
		cached := record("Fig3b/Cached", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bpm.Simulate(bcfg, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
		speedup(&rep, "fig3b cached vs uncached", uncached.NsPerOp, cached.NsPerOp)

		// Fig 8: the WDM placement + min-cost-flow assignment.
		conns, wcfg = wdmInputs(d, cfg)
		record("Fig8/WDM", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := wdm.Run(conns, wcfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// LR pricing in isolation, sequential vs worker-pool.
	inst := mustInstance(d, cfg)
	runLR := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := selection.SolveLR(inst, selection.LROptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	lrSeq := record("LRPricing/Workers1", runLR(1))
	lrPar := record("LRPricing/WorkersN", runLR(0))
	parSpeedup(&rep, "lr-pricing workersN vs workers1", lrSeq.NsPerOp, lrPar.NsPerOp)

	if full {
		// LP engines head to head on a selection-shaped relaxation: the revised
		// simplex with native bounds vs the dense two-phase tableau oracle.
		lpProb := selectionShapedLP()
		lpRev := record("LP/Revised", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := lp.Solve(lpProb)
				if err != nil {
					b.Fatal(err)
				}
				if s.Status != lp.Optimal {
					b.Fatalf("revised status %v", s.Status)
				}
			}
		})
		lpDense := record("LP/Dense", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := lp.SolveDense(lpProb)
				if err != nil {
					b.Fatal(err)
				}
				if s.Status != lp.Optimal {
					b.Fatalf("dense status %v", s.Status)
				}
			}
		})
		speedup(&rep, "lp revised vs dense", lpDense.NsPerOp, lpRev.NsPerOp)

		// The exact selection solve (branch and bound, warm-started relaxations)
		// on the reduced I3-style case, with per-node LP accounting.
		ilpInst = mustInstance(mustILPDesign(), cfg)
		record("ILP/Selection", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ir, err := solveILPWithin(ilpInst, 60*time.Second, selection.ILPOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if ir.TimedOut {
					b.Fatal("ILP benchmark case timed out")
				}
				if i == 0 {
					st := ILPStats{Nodes: ir.Nodes, LPSolves: ir.LPSolves, LPTimeNS: ir.LPTime.Nanoseconds()}
					if ir.Nodes > 0 {
						st.LPSolvesToNode = float64(ir.LPSolves) / float64(ir.Nodes)
					}
					if ir.LPSolves > 0 {
						st.LPNsPerSolve = float64(ir.LPTime.Nanoseconds()) / float64(ir.LPSolves)
					}
					if ir.Elapsed > 0 {
						st.NodesPerSec = float64(ir.Nodes) / ir.Elapsed.Seconds()
					}
					rep.ILP = &st
				}
			}
		})
		if rep.ILP != nil {
			rep.Benchmarks[len(rep.Benchmarks)-1].NodesPerSec = rep.ILP.NodesPerSec
		}
	}

	// The deterministic parallel branch and bound on a branchy equality
	// knapsack: Workers=4 must explore the exact same tree as Workers=1
	// (asserted here), and on a multi-core runner finish it faster.
	branchy := branchyProblem(20, 11)
	arena := parallel.NewArena()
	runBranchy := func(workers int, nodes *int, dur *time.Duration) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := ilp.Solve(branchy, ilp.Options{
					MaxNodes: 4000, Workers: workers, Arena: arena,
				})
				if err != nil {
					b.Fatal(err)
				}
				*nodes, *dur = r.Nodes, r.Elapsed
			}
		}
	}
	var nodes1, nodes4 int
	var dur1, dur4 time.Duration
	bw1 := record("ILP/Branchy/Workers1", runBranchy(1, &nodes1, &dur1))
	setNodesPerSec(nodes1, dur1)
	bw4 := record("ILP/Branchy/Workers4", runBranchy(4, &nodes4, &dur4))
	setNodesPerSec(nodes4, dur4)
	if nodes1 != nodes4 {
		fatal(fmt.Errorf("parallel ILP determinism violated: %d nodes at Workers=1, %d at Workers=4", nodes1, nodes4))
	}
	parSpeedup(&rep, "ilp workers4 vs workers1", bw1.NsPerOp, bw4.NsPerOp)

	if full {
		// Min-cost max-flow on a WDM-assignment-shaped network (build + solve).
		mcmfArcs := mcmfNetwork()
		record("MCMF", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := mcmf.NewWithEdgeHint(mcmfNodes, len(mcmfArcs))
				for _, a := range mcmfArcs {
					g.AddEdge(a.u, a.v, a.cap, a.cost)
				}
				if _, err := g.MaxFlow(mcmfSrc, mcmfSnk); err != nil {
					b.Fatal(err)
				}
			}
		})

		// BI1S with the incremental MST evaluation.
		rng := rand.New(rand.NewSource(11))
		terms := make([]geom.Point, 24)
		for i := range terms {
			terms[i] = geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
		}
		for _, metric := range []steiner.Metric{steiner.Rectilinear, steiner.Euclidean} {
			record("BI1S/"+metric.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					steiner.BI1S(terms, metric, steiner.BI1SConfig{})
				}
			})
		}

		// The I6–I8 mega cases. Each selected case records the full flow, the
		// WDM layer alone (Fig8/WDM/<case>) on that flow's connections, and an
		// exact-ILP solve on the leading megaILPNets-net sub-instance — the full
		// mega programme (≈240k variables at I6) is beyond any exact solver's
		// root relaxation budget, so the slice is what keeps branch and bound an
		// honest, repeatable measurement at this scale. Unselected cases go to
		// rep.Skipped so benchcmp can tell a deliberate omission from a lost
		// benchmark.
		for _, spec := range benchgen.MegaSpecs() {
			flowName := "Table1/OPERON-LR/" + spec.Name + "/WorkersN"
			wdmName := "Fig8/WDM/" + spec.Name
			instName := "Selection/Instance/" + spec.Name
			lrName := "LRPricing/" + spec.Name
			ilpName := fmt.Sprintf("ILP/%s/First%d", spec.Name, megaILPNets)
			if !megaSel[spec.Name] {
				rep.Skipped = append(rep.Skipped, flowName, wdmName, instName, lrName, ilpName)
				continue
			}
			md, err := benchgen.Generate(spec)
			if err != nil {
				fatal(err)
			}
			record(flowName, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := operon.RunContextWith(context.Background(), md, cfg, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			mres, err := operon.RunContextWith(context.Background(), md, cfg, nil)
			if err != nil {
				fatal(err)
			}
			// The WDM layer alone (placement + assignment) on the flow's own
			// connections.
			mwcfg := wdmConfig(cfg)
			record(wdmName, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := wdm.Run(mres.Connections, mwcfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			// The selection layer alone on the flow's candidates: instance
			// setup (the interaction sweep), then an LR solve on a fresh
			// instance per op, so the crossing-loss table build is counted.
			record(instName, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := selection.NewInstance(mres.Nets, cfg.Lib); err != nil {
						b.Fatal(err)
					}
				}
			})
			record(lrName, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					inst, err := selection.NewInstance(mres.Nets, cfg.Lib)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := selection.SolveLR(inst, selection.LROptions{Workers: cfg.Workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
			sub, err := selection.NewInstance(mres.Nets[:megaILPNets], cfg.Lib)
			if err != nil {
				fatal(err)
			}
			var mNodes int
			var mElapsed time.Duration
			record(ilpName, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ir, err := solveILPWithin(sub, 120*time.Second, selection.ILPOptions{MaxNodes: *megaNodes})
					if err != nil {
						b.Fatal(err)
					}
					mNodes, mElapsed = ir.Nodes, ir.Elapsed
				}
			})
			setNodesPerSec(mNodes, mElapsed)
		}

		// ECO: incremental re-synthesis. A session re-solve after a one-pin edit
		// must beat the cold solve by >= 10x (the small-edit gate): only the
		// touched group re-clusters, its nets regenerate candidates, and the
		// untouched groups reuse clustering, trees, and candidate sets verbatim.
		// The pin alternates between two positions so every iteration dirties
		// exactly one group and the allocation profile is steady. WDM is skipped
		// on both sides so the gate compares the incremental stages, not the
		// (reused-anyway) placement.
		ecoD := mustDesign("I3")
		ecoCfg := cfg
		ecoCfg.SkipWDM = true
		ecoCold := record("ECO/Cold/I3", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := operon.RunContextWith(context.Background(), ecoD, ecoCfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		ecoP0 := ecoD.Groups[0].Bits[0].Driver
		ecoP1 := ecoP0
		ecoP1.X += 0.01
		sess := operon.NewSession(ecoD, ecoCfg)
		if _, _, err := sess.Resolve(context.Background()); err != nil {
			fatal(err)
		}
		ecoToggle := false
		ecoSmall := record("ECO/SmallEdit/I3", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := ecoP0
				if !ecoToggle {
					p = ecoP1
				}
				ecoToggle = !ecoToggle
				if _, err := sess.Apply(operon.MoveTerminal(0, 0, -1, p)); err != nil {
					b.Fatal(err)
				}
				if _, _, err := sess.Resolve(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
		speedup(&rep, "eco small-edit resolve vs cold", ecoCold.NsPerOp, ecoSmall.NsPerOp)
		if !*quick && ecoSmall.NsPerOp > 0 && ecoCold.NsPerOp/ecoSmall.NsPerOp < 10 {
			fatal(fmt.Errorf("ECO small-edit speedup %.1fx is below the 10x gate (cold %.0f ns/op, resolve %.0f ns/op)",
				ecoCold.NsPerOp/ecoSmall.NsPerOp, ecoCold.NsPerOp, ecoSmall.NsPerOp))
		}

		// The same one-pin edit through the full pipeline (WDM on) and an edit
		// touching every group — both informational, no gate: the first shows
		// what the end-to-end interactive latency looks like, the second bounds
		// the worst case (a resolve that reuses nothing still must not be slower
		// than cold by more than the dirty-tracking overhead).
		sessFull := operon.NewSession(ecoD, cfg)
		if _, _, err := sessFull.Resolve(context.Background()); err != nil {
			fatal(err)
		}
		fullToggle := false
		record("ECO/SmallEditFullPipeline/I3", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := ecoP0
				if !fullToggle {
					p = ecoP1
				}
				fullToggle = !fullToggle
				if _, err := sessFull.Apply(operon.MoveTerminal(0, 0, -1, p)); err != nil {
					b.Fatal(err)
				}
				if _, _, err := sessFull.Resolve(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
		sessAll := operon.NewSession(ecoD, ecoCfg)
		if _, _, err := sessAll.Resolve(context.Background()); err != nil {
			fatal(err)
		}
		allToggle := false
		record("ECO/AllGroups/I3", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dx := 0.01
				if allToggle {
					dx = 0
				}
				allToggle = !allToggle
				edits := make([]operon.Edit, len(ecoD.Groups))
				for gi := range ecoD.Groups {
					p := ecoD.Groups[gi].Bits[0].Driver
					p.X += dx
					edits[gi] = operon.MoveTerminal(gi, 0, -1, p)
				}
				if _, err := sessAll.Apply(edits...); err != nil {
					b.Fatal(err)
				}
				if _, _, err := sessAll.Resolve(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})

		// One untimed instrumented pass over the deterministic solver workloads
		// embeds the behaviour counters in the report. The Nop sink keeps the
		// pass cheap: only the atomic counters accumulate.
		tracer := obs.New(nil)
		if _, err := solveILPWithin(ilpInst, 60*time.Second, selection.ILPOptions{Obs: tracer}); err != nil {
			fatal(err)
		}
		wcfgObs := wcfg
		wcfgObs.Obs = tracer
		if _, _, _, err := wdm.Run(conns, wcfgObs); err != nil {
			fatal(err)
		}
		// The BPM cache is process-global; fold in the traffic the Fig-3(b)
		// benchmarks generated (hit count scales with -test.benchtime, the miss
		// count with the distinct configurations exercised).
		hits, misses := bpm.CacheCounters()
		tracer.Counter("bpm.cache_hits").Add(hits)
		tracer.Counter("bpm.cache_misses").Add(misses)
		rep.Counters = tracer.Snapshot()

		// One untimed instrumented session pass (cold solve + one-pin edit +
		// resolve) embeds the ws.session.* reuse counters. It runs on its own
		// tracer and only those counters are folded in: the resolve also bumps
		// lp.pivots & co., which must stay comparable with committed baselines.
		ecoTracer := obs.New(nil)
		ecoObsCfg := ecoCfg
		ecoObsCfg.Obs = ecoTracer
		es := operon.NewSession(ecoD, ecoObsCfg)
		if _, _, err := es.Resolve(context.Background()); err != nil {
			fatal(err)
		}
		if _, err := es.Apply(operon.MoveTerminal(0, 0, -1, ecoP1)); err != nil {
			fatal(err)
		}
		if _, _, err := es.Resolve(context.Background()); err != nil {
			fatal(err)
		}
		for _, c := range ecoTracer.Snapshot() {
			if strings.HasPrefix(c.Name, "ws.session.") {
				rep.Counters = append(rep.Counters, c)
			}
		}
		sort.Slice(rep.Counters, func(i, j int) bool { return rep.Counters[i].Name < rep.Counters[j].Name })

		// One more untimed instrumented flow run fills the per-stage latency
		// histograms. It runs on its own tracer: folding it into the counter
		// tracer above would shift lp.pivots & co. and break counter
		// comparability with committed baselines.
		histTracer := obs.New(nil)
		hcfg := cfg
		hcfg.Obs = histTracer
		if _, err := operon.RunContextWith(context.Background(), d, hcfg, nil); err != nil {
			fatal(err)
		}
		const msPerNs = 1e-6
		for _, h := range histTracer.HistogramSnapshots() {
			rep.Histograms = append(rep.Histograms, HistEntry{
				Name:  h.Name,
				Count: h.Count,
				P50MS: h.Quantile(0.50) * msPerNs,
				P90MS: h.Quantile(0.90) * msPerNs,
				P99MS: h.Quantile(0.99) * msPerNs,
			})
		}

		// Serve/CoalesceHot: an identical /solve request answered from the
		// content-addressed result cache through the full HTTP handler path
		// (decode, fingerprint, cache lookup, encode) — the serving-stack
		// overhead a deduplicated request costs. The first request warms the
		// cache; the speedup relates it to the sequential cold flow above.
		ssrv := serve.New(serve.Options{
			Config: cfg, QueueLen: 4, Concurrency: 1, DefaultTimeout: time.Minute,
		})
		handler := ssrv.Handler()
		hotBody := []byte(fmt.Sprintf(`{"bench":%q,"timeout_ms":60000}`, *caseName))
		hotPost := func() int {
			req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(hotBody))
			req.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			return w.Code
		}
		if code := hotPost(); code != http.StatusOK {
			fatal(fmt.Errorf("serve warm-up solve returned status %d", code))
		}
		hot := record("Serve/CoalesceHot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if code := hotPost(); code != http.StatusOK {
					b.Fatalf("cache-hit request returned status %d", code)
				}
			}
		})
		ssrv.Abort()
		ssrv.Shutdown()
		speedup(&rep, "serve cache-hit vs cold solve", seq.NsPerOp, hot.NsPerOp)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks, %d CPUs)\n", path, len(rep.Benchmarks), rep.CPUs)

	// The parallel-speedup gate: on a multicore runner the worker-pool paths
	// must actually be faster than their sequential twins. A single-core
	// runner cannot measure this (the pairs land in SpeedupsNA), so the gate
	// skips there with a notice instead of passing vacuously silent.
	if *minPar > 0 {
		if rep.GoMaxProcs <= 1 {
			fmt.Fprintln(os.Stderr, "bench: -min-par-speedup skipped: GOMAXPROCS=1, parallel speedups are not measurable here")
			return
		}
		for _, name := range []string{
			"operon-lr workersN vs workers1",
			"lr-pricing workersN vs workers1",
			"ilp workers4 vs workers1",
		} {
			s, measured := rep.Speedups[name]
			if !measured {
				fatal(fmt.Errorf("parallel speedup gate: %q was not measured", name))
			}
			if s < *minPar {
				fatal(fmt.Errorf("parallel speedup gate: %s = %.2fx < %.2fx required", name, s, *minPar))
			}
		}
		fmt.Printf("parallel speedup gate ok (>= %.2fx on %d procs)\n", *minPar, rep.GoMaxProcs)
	}
}

func mustDesign(name string) signal.Design {
	spec, err := benchgen.SpecByName(name)
	if err != nil {
		fatal(err)
	}
	d, err := benchgen.Generate(spec)
	if err != nil {
		fatal(err)
	}
	return d
}

// solveILPWithin runs one exact selection solve under a limit-long context
// deadline.
func solveILPWithin(inst *selection.Instance, limit time.Duration, opt selection.ILPOptions) (selection.ILPResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	opt.Ctx = ctx
	return selection.SolveILP(inst, opt)
}

// mustInstance reproduces the selection instance of the case so SolveLR can
// be measured without the earlier stages.
func mustInstance(d signal.Design, cfg operon.Config) *selection.Instance {
	c := cfg
	c.SkipWDM = true
	res, err := operon.RunContextWith(context.Background(), d, c, nil)
	if err != nil {
		fatal(err)
	}
	inst, err := selection.NewInstance(res.Nets, cfg.Lib)
	if err != nil {
		fatal(err)
	}
	// Build the instance's crossing-loss table with one solve, so the
	// Workers1/WorkersN comparison measures the pricing loops alone.
	if _, err := selection.SolveLR(inst, selection.LROptions{}); err != nil {
		fatal(err)
	}
	return inst
}

// wdmInputs extracts the optical connections of the case for the Fig-8
// benchmark.
func wdmInputs(d signal.Design, cfg operon.Config) ([]wdm.Connection, wdm.Config) {
	c := cfg
	c.SkipWDM = true
	res, err := operon.RunContextWith(context.Background(), d, c, nil)
	if err != nil {
		fatal(err)
	}
	var conns []wdm.Connection
	for i, j := range res.Selection.Choice {
		for _, seg := range res.Nets[i].Cands[j].OpticalSegs {
			conns = append(conns, wdm.Connection{Seg: seg, Bits: res.Nets[i].Bits, Net: i})
		}
	}
	return conns, wdmConfig(cfg)
}

// wdmConfig is the WDM stage configuration of a flow configuration.
func wdmConfig(cfg operon.Config) wdm.Config {
	return wdm.Config{
		Capacity:        cfg.Lib.WDMCapacity,
		MinSpacingCM:    cfg.Lib.CrosstalkMinDistCM,
		MaxAssignDistCM: cfg.Lib.AssignMaxDistCM,
	}
}

// mustILPDesign is the reduced I3-style case on which branch and bound
// proves optimality quickly — the same spec bench_test.go's BenchmarkILP
// uses.
func mustILPDesign() signal.Design {
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "I3s", DieCM: 4, Groups: 24, BitsPerGroup: 30, BitsJitter: 1,
		MinSinkClusters: 1, MaxSinkClusters: 1, LocalFraction: 0.15,
		LocalSpanCM: 0.15, GlobalSpanCM: 1.9, RegionSpreadCM: 0.02,
		LanePitchCM: 0.2, Seed: 103,
	})
	if err != nil {
		fatal(err)
	}
	return d
}

// selectionShapedLP builds a deterministic LP with the structure of the
// Formula-(3) relaxation: assignment equalities over candidate blocks,
// GE linearisation rows coupling pair variables, LE detection rows, and
// native [0,1] bounds on the assignment variables.
func selectionShapedLP() lp.Problem {
	rng := rand.New(rand.NewSource(29))
	const nets, cands = 12, 4
	var obj []float64
	var upper []float64
	var rows []lp.Row
	for i := 0; i < nets; i++ {
		row := lp.Row{Sense: lp.EQ, RHS: 1}
		for j := 0; j < cands; j++ {
			row.Terms = append(row.Terms, lp.Term{Var: i*cands + j, Coeff: 1})
			obj = append(obj, 1+rng.Float64()*4) // candidate power
			upper = append(upper, 1)
		}
		rows = append(rows, row)
	}
	// Pair variables coupling neighbouring nets, y >= a + b - 1.
	pair := func(a, b int) {
		v := len(obj)
		obj = append(obj, 0)
		upper = append(upper, mathInf)
		rows = append(rows, lp.Row{
			Terms: []lp.Term{{Var: v, Coeff: 1}, {Var: a, Coeff: -1}, {Var: b, Coeff: -1}},
			Sense: lp.GE, RHS: -1,
		})
		// Detection row: crossing loss bounded by the budget.
		rows = append(rows, lp.Row{
			Terms: []lp.Term{{Var: v, Coeff: 0.5 + rng.Float64()}, {Var: a, Coeff: 0.2}},
			Sense: lp.LE, RHS: 3,
		})
	}
	for i := 0; i+1 < nets; i++ {
		for j := 0; j < cands; j++ {
			pair(i*cands+j, (i+1)*cands+rng.Intn(cands))
		}
	}
	return lp.Problem{NumVars: len(obj), Objective: obj, Rows: rows, Upper: upper}
}

var mathInf = math.Inf(1)

// mcmfNetwork is the WDM-assignment-shaped flow network of BenchmarkMCMF:
// 200 connections, 60 WDMs, four candidate arcs per connection.
type mcmfArc struct {
	u, v, cap int
	cost      int64
}

const (
	mcmfNodes = 262
	mcmfSrc   = 0
	mcmfSnk   = 261
)

func mcmfNetwork() []mcmfArc {
	rng := rand.New(rand.NewSource(17))
	var arcs []mcmfArc
	nConn, nWDM := 200, 60
	for c := 0; c < nConn; c++ {
		arcs = append(arcs, mcmfArc{mcmfSrc, 1 + c, 2 + rng.Intn(20), 0})
		for w := 0; w < 4; w++ {
			arcs = append(arcs, mcmfArc{1 + c, 1 + nConn + rng.Intn(nWDM), 32, int64(rng.Intn(1000))})
		}
	}
	for w := 0; w < nWDM; w++ {
		arcs = append(arcs, mcmfArc{1 + nConn + w, mcmfSnk, 32, int64(1+w) * 5000})
	}
	return arcs
}

// megaILPNets is the size of the leading sub-instance the ILP mega entries
// solve. Calibrated on the reference single-core runner: 300 nets of I6
// prove optimal at the root in ≈2 s, while 600 nets push the root
// relaxation past two minutes — the knee of the exact frontier.
const megaILPNets = 300

// branchyProblem builds an equality knapsack with many near-symmetric
// fractional optima: the branch-and-bound tree is wide and deep, so the
// speculative workers genuinely overlap with the decision loop instead of
// starving behind a chain of forced moves.
func branchyProblem(n int, seed int64) ilp.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := ilp.Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
	row := lp.Row{Sense: lp.EQ, RHS: float64(n)/4 + 0.5}
	for i := 0; i < n; i++ {
		p.LP.Objective[i] = 1 + rng.Float64()*0.001
		row.Terms = append(row.Terms, lp.Term{Var: i, Coeff: 1 + rng.Float64()*0.01})
		p.Binary = append(p.Binary, i)
	}
	p.LP.Rows = append(p.LP.Rows, row)
	return p
}

// heapSampler polls runtime.MemStats.HeapAlloc in the background and keeps
// the maximum observed. A 10 ms cadence is a lower bound on the true peak
// (spikes between samples are missed) but it is stable enough to gate
// footprint growth on the mega cases, where the live heap — not ns/op — is
// the scaling constraint.
type heapSampler struct {
	stopCh chan struct{}
	peakCh chan int64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stopCh: make(chan struct{}), peakCh: make(chan int64, 1)}
	go func() {
		var ms runtime.MemStats
		var peak int64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if int64(ms.HeapAlloc) > peak {
				peak = int64(ms.HeapAlloc)
			}
			select {
			case <-s.stopCh:
				s.peakCh <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling goroutine and returns the peak it saw.
func (s *heapSampler) stop() int64 {
	close(s.stopCh)
	return <-s.peakCh
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
