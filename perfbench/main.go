// Command perfbench is the OPERON benchmark: one command that runs a named
// workload against the code it is built from, checks every output, and
// prints the workload's metrics as one JSON object on the last line of
// standard output.
//
//	bash perfbench/run.sh --workload mega-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.md next to this file):
//
//	mega-cold  cold LR solves of the I6-spec mega case
//	eco-edit   one closed-loop designer editing an I5-spec design in a Session
//	serve-open open-loop HTTP traffic through the real internal/serve handler
//	exact-ilp  exact ILP solves of I3-shaped designs
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics instead, read from the flow's results, its
// counters and a replay of each layer through the layer's public function,
// and writes the benchmark-side spans as a Chrome trace-event file under
// .bench_build/traces/. All load comes from this one process; GOMAXPROCS,
// solver workers and client connections are all at most the CPU count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in the order of
// BENCHMARK.json. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"power_mw", "mW"},
	{"wdms_used", "count"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"goodput_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"retained_heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A workload that does not run
// a layer reports 0 for it.
var perLayer = []metricDef{
	{"signal.process_ms", "ms"},
	{"codesign.candidates_ms", "ms"},
	{"codesign.cands_per_net", "count"},
	{"selection.instance_ms", "ms"},
	{"selection.lr_ms", "ms"},
	{"selection.lr_iters", "count"},
	{"selection.ilp_ms", "ms"},
	{"operon.unstaged_ms", "ms"},
	{"wdm.place_ms", "ms"},
	{"wdm.assign_ms", "ms"},
	{"wdm.connections", "count"},
	{"wdm.arcs", "count"},
	{"mcmf.augmentations", "count"},
	{"lp.pivots", "count"},
	{"lp.refactors", "count"},
	{"lp.solves", "count"},
	{"lp.presolve_rows", "count"},
	{"ilp.nodes", "count"},
	{"session.apply_ms", "ms"},
	{"session.resolve_ms", "ms"},
	{"session.overhead_ms", "ms"},
	{"session.cands_reused_frac", "ratio"},
	{"session.wdm_reused_frac", "ratio"},
	{"serve.queue_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.solves_per_item", "ratio"},
	{"serve.http_429", "count"},
	{"loadgen.late_p90_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.peak_heap_mb", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"mega-cold":  runMegaCold,
	"eco-edit":   runEcoEdit,
	"serve-open": runServeOpen,
	"exact-ilp":  runExactILP,
}

// run carries one benchmark run's parameters and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	nproc    int
	rec      *recorder // nil unless traced

	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
}

// fail records a correctness problem that is not tied to one operation (a
// reference mismatch, a failed sample check).
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, msg)
}

// opFailed counts one failed operation and reports why.
func (r *run) opFailed(format string, args ...any) {
	r.failed++
	r.fail(format, args...)
}

// nproc is the parallelism every workload uses: solver workers, server
// slots and client connections never exceed it.
func nproc() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: mega-cold, eco-edit, serve-open or exact-ilp")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	refs := flag.String("refs", "", "print the reference quality table for seeds LO-HI (of --workload, or all) and exit")
	flag.Parse()

	if *refs != "" {
		if err := printRefs(*refs, *workload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {mega-cold|eco-edit|serve-open|exact-ilp} --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		nproc:    nproc(),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	if r.traced {
		r.rec = newRecorder()
	}
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if r.traced {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	}
	out, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result assembles the printed object: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
func (r *run) result() result {
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layer
	}
	m := map[string]metricValue{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", d.name, v)
			v = 0
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := m[name]; !ok {
			panic("perfbench: undeclared metric " + name)
		}
	}
	return result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}
}

// setLayerMedians stores the median of every per-operation layer series.
func (r *run) setLayerMedians(series map[string][]float64) {
	for name, xs := range series {
		r.layer[name] = median(xs)
	}
}
