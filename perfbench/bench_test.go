package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"operon/internal/benchgen"
)

// TestPercentileMatchesSortedOracle checks the percentile helper against
// the nearest-rank element of a sorted copy, and that it refuses a tail
// percentile with fewer than minBeyond samples above it.
func TestPercentileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.ExpFloat64()*100) / 10 // ties included
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.75, 0.9, 0.99} {
			rank := int(math.Ceil(q * float64(n)))
			got, err := percentile(xs, q)
			if q > 0.5 && n-rank < minBeyond {
				if err == nil {
					t.Fatalf("n=%d q=%v: reported %v with only %d samples beyond it", n, q, got, n-rank)
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d q=%v: %v", n, q, err)
			}
			if want := sorted[rank-1]; got != want {
				t.Fatalf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
	}
	if _, err := percentile(make([]float64, 99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples must be refused")
	}
	if _, err := percentile(make([]float64, 100), 0.9); err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

// TestScheduleDeterministic checks that a seed fixes the serve-open
// schedule byte for byte, and that another seed changes it.
func TestScheduleDeterministic(t *testing.T) {
	window := 5 * time.Second
	a, err := newSchedule(3, window)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSchedule(3, window)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.arrivals, b.arrivals) {
		t.Fatal("same seed, different arrivals")
	}
	for i, arr := range a.arrivals {
		if !bytes.Equal(a.body(arr), b.body(b.arrivals[i])) {
			t.Fatalf("same seed, different body for request %d", i)
		}
		if !json.Valid(a.body(arr)) {
			t.Fatalf("request %d: body is not JSON", i)
		}
	}
	if len(a.arrivals) < minTailOps || a.arrivals[len(a.arrivals)-1].due > a.span {
		t.Fatalf("%d arrivals, last due %v, span %v", len(a.arrivals), a.arrivals[len(a.arrivals)-1].due, a.span)
	}
	c, err := newSchedule(4, window)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.body(a.arrivals[0]), c.body(c.arrivals[0])) {
		t.Fatal("different seeds, same first body")
	}
}

// TestEditScriptDeterministic checks that a seed fixes the eco-edit script.
func TestEditScriptDeterministic(t *testing.T) {
	d, err := benchgen.Generate(ecoSpec(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ecoScript(d, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ecoScript(d, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != ecoScriptLen || !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different edit scripts")
	}
	ja, _ := json.Marshal(benchgen.MoveScript(d, 50, 5))
	jb, _ := json.Marshal(benchgen.MoveScript(d, 50, 5))
	if !bytes.Equal(ja, jb) {
		t.Fatal("same seed, different serialised move scripts")
	}
}

// TestTraceAcceptedByTracecheck writes a small span trace and runs the
// repository's trace validator on it.
func TestTraceAcceptedByTracecheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/tracecheck")
	}
	r := newRecorder()
	root := r.open("op/solve", "req-1", 0, 1)
	r.timed("selection.SolveLR", "req-1", root, 1, func() { time.Sleep(time.Millisecond) })
	r.end(root)
	r.open("never-closed", "req-2", 0, 2) // dropped from the output
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "run", "operon/cmd/tracecheck", path).CombinedOutput()
	if err != nil {
		t.Fatalf("tracecheck: %v\n%s", err, out)
	}
	var evs []traceEvent
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 { // two spans and one lane name
		t.Fatalf("%d events, want 3", len(evs))
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload lists of the
// program equal to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no function", w.Name)
		}
	}
}

// TestReferencesComplete checks that every workload's reference table
// covers the same seeds.
func TestReferencesComplete(t *testing.T) {
	var seeds []string
	for name := range workloads {
		if len(references[name]) == 0 {
			t.Fatalf("no references for %s", name)
		}
		var s []string
		for seed := range references[name] {
			s = append(s, seed)
		}
		sort.Strings(s)
		if seeds == nil {
			seeds = s
		} else if !reflect.DeepEqual(s, seeds) {
			t.Fatalf("%s covers seeds %v, others %v", name, s, seeds)
		}
	}
}
