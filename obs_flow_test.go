package operon

import (
	"context"
	"testing"

	"operon/internal/obs"
)

// runInstrumented executes the OPERON flow on the small design with a
// Collector sink attached and returns both.
func runInstrumented(t *testing.T, mutate func(*Config)) (*Result, *obs.Collector) {
	t.Helper()
	d := smallDesign(t)
	col := &obs.Collector{}
	cfg := DefaultConfig()
	cfg.Obs = obs.New(col)
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := RunContextWith(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	return res, col
}

// TestStageTimesMatchObsSpans pins the derived-view contract: StageTimes is
// exactly the per-stage span durations, so Total() equals the sum of the
// recorded stage spans.
func TestStageTimesMatchObsSpans(t *testing.T) {
	res, col := runInstrumented(t, nil)

	stages := map[string]int64{
		"stage/process":    res.Times.Process.Nanoseconds(),
		"stage/candidates": res.Times.Candidates.Nanoseconds(),
		"stage/selection":  res.Times.Selection.Nanoseconds(),
		"stage/wdm":        res.Times.WDM.Nanoseconds(),
	}
	var sum int64
	for name, want := range stages {
		spans := col.SpansNamed(name)
		if len(spans) != 1 {
			t.Fatalf("%d %s spans, want 1", len(spans), name)
		}
		if got := spans[0].Dur.Nanoseconds(); got != want {
			t.Errorf("%s: span %dns, StageTimes %dns", name, got, want)
		}
		sum += spans[0].Dur.Nanoseconds()
	}
	if total := res.Times.Total().Nanoseconds(); total != sum {
		t.Errorf("StageTimes.Total() = %dns, stage spans sum to %dns", total, sum)
	}
}

// TestObsFlowSpansEventsCounters checks the rest of the instrumentation a
// full LR flow is expected to leave behind.
func TestObsFlowSpansEventsCounters(t *testing.T) {
	res, col := runInstrumented(t, nil)

	if res.Obs == nil {
		t.Error("Result.Obs not set")
	}
	// One candidate-generation span per hyper net, all on worker lanes.
	nc := col.SpansNamed("net/candidates")
	if len(nc) != len(res.Nets) {
		t.Errorf("%d net/candidates spans for %d nets", len(nc), len(res.Nets))
	}
	for _, s := range nc {
		if s.Lane == obs.LaneFlow {
			t.Error("net/candidates span on the flow lane")
			break
		}
	}
	// LR iterate events mirror the recorded history.
	if res.LR == nil {
		t.Fatal("LR diagnostics missing")
	}
	if evs := col.EventsNamed("lr/iterate"); len(evs) != len(res.LR.History) {
		t.Errorf("%d lr/iterate events for %d history entries", len(evs), len(res.LR.History))
	}
	// WDM stage instrumentation (the small design always has optical nets).
	if len(col.SpansNamed("wdm/place")) != 1 {
		t.Error("missing wdm/place span")
	}
	if len(col.SpansNamed("wdm/assign")) == 0 {
		t.Error("missing wdm/assign spans")
	}
	// Counters flushed at Close: min-cost-flow and arc-costing activity.
	vals := map[string]int64{}
	for _, cv := range col.CounterValues() {
		vals[cv.Name] = cv.Value
	}
	for _, name := range []string{"mcmf.augmentations", "wdm.arcs"} {
		if vals[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, vals[name])
		}
	}
}

// TestObsILPNodeEvents checks the branch-and-bound and LP instrumentation
// on an exact solve.
func TestObsILPNodeEvents(t *testing.T) {
	res, col := runInstrumented(t, func(cfg *Config) { cfg.Mode = ModeILP })

	if res.ILP == nil {
		t.Fatal("ILP diagnostics missing")
	}
	if sp := col.SpansNamed("selection/ilp"); len(sp) != 1 {
		t.Fatalf("%d selection/ilp spans, want 1", len(sp))
	}
	nodes := col.EventsNamed("ilp/node")
	if len(nodes) != res.ILP.Nodes {
		t.Errorf("%d ilp/node events for %d nodes", len(nodes), res.ILP.Nodes)
	}
	vals := map[string]int64{}
	for _, cv := range col.CounterValues() {
		vals[cv.Name] = cv.Value
	}
	if vals["ilp.nodes"] != int64(res.ILP.Nodes) {
		t.Errorf("ilp.nodes counter %d, ILPResult.Nodes %d", vals["ilp.nodes"], res.ILP.Nodes)
	}
	for _, name := range []string{"lp.solves", "lp.pivots"} {
		if vals[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, vals[name])
		}
	}
}

// TestObsDoesNotChangeResults pins the invariant that instrumentation is
// pure telemetry: an instrumented run selects bit-identical routes.
func TestObsDoesNotChangeResults(t *testing.T) {
	d := smallDesign(t)
	plain, err := RunContextWith(context.Background(), d, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, _ := runInstrumented(t, nil)
	if plain.PowerMW != traced.PowerMW {
		t.Errorf("power %v with tracer vs %v without", traced.PowerMW, plain.PowerMW)
	}
	if len(plain.Selection.Choice) != len(traced.Selection.Choice) {
		t.Fatal("selection lengths differ")
	}
	for i := range plain.Selection.Choice {
		if plain.Selection.Choice[i] != traced.Selection.Choice[i] {
			t.Fatalf("net %d: choice %d with tracer vs %d without",
				i, traced.Selection.Choice[i], plain.Selection.Choice[i])
		}
	}
	if plain.WDMStats != traced.WDMStats {
		t.Errorf("WDM stats %+v with tracer vs %+v without", traced.WDMStats, plain.WDMStats)
	}
}
