// Command benchcmp diffs two cmd/bench reports and fails when a guarded
// measure regressed by more than a threshold. Two kinds of measures are
// gated:
//
//   - Behaviour counters (simplex pivots, min-cost-flow augmentations,
//     branch-and-bound nodes): deterministic for fixed workloads, so any
//     jump is an algorithmic regression, not noise.
//   - Allocation profiles (allocs_per_op / bytes_per_op of every benchmark
//     entry): deterministic up to benchtime amortisation, so a jump means
//     hot-path allocation churn crept back in. Tiny entries are exempted by
//     an absolute floor (16 allocs / 1024 bytes) — a 2→3 alloc change is
//     not a regression signal.
//   - Peak live heap (peak_heap_bytes, when both reports sampled it): the
//     footprint gate for the mega cases, with a 64 MiB absolute floor so
//     GC timing noise on small entries never trips it.
//
// Coverage is also gated: a benchmark present in the old report but absent
// from the new one fails the comparison unless the new report names it in
// its "skipped" list — losing a benchmark must be a decision, not an
// accident. Entries only the new report has are informational ("new, no
// baseline"). An entry named in the new report's "acknowledged" list is
// reported but never failed: the waiver for a deliberate time-vs-memory
// trade rides in the committed baseline where review can see it.
//
// Wall-clock numbers are reported for context but never gated.
//
// With no arguments the two newest BENCH_*.json files in the working
// directory (by name, which sorts by date) are compared; pass two paths to
// compare explicitly. Reports without a counters section (predating the
// obs layer) compare as trivially clean.
//
// Usage:
//
//	benchcmp [-threshold 0.10] [old.json new.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// report is the subset of the cmd/bench document benchcmp reads.
type report struct {
	Date string `json:"date"`
	// CPUs and GoMaxProcs describe the machine that took the report. The
	// allocation profile of a worker-pool entry depends on how many
	// goroutines the scheduler ran, so reports from machines that differ
	// here are not strictly comparable; the header warns about it.
	CPUs       int `json:"cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
	Benchmarks []struct {
		Name          string `json:"name"`
		AllocsPerOp   int64  `json:"allocs_per_op"`
		BytesPerOp    int64  `json:"bytes_per_op"`
		PeakHeapBytes int64  `json:"peak_heap_bytes"`
	} `json:"benchmarks"`
	// Skipped names the entries the new run deliberately did not execute
	// (mega cases outside its -mega selection); they are exempt from the
	// missing-benchmark gate.
	Skipped []string `json:"skipped"`
	// Acknowledged names entries whose allocation-profile change the new
	// report declares deliberate; they are reported but not gated.
	Acknowledged []string `json:"acknowledged"`
	Counters     []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	} `json:"counters"`
	// Histograms is the per-stage latency summary newer reports carry.
	// Wall-clock quantiles are machine-dependent, so the section is
	// reported for context and never gated.
	Histograms []struct {
		Name  string  `json:"name"`
		Count int64   `json:"count"`
		P99MS float64 `json:"p99_ms"`
	} `json:"histograms"`
}

// Absolute floors under which a delta is never gated: relative thresholds
// on near-zero baselines (a 2-alloc cached hit, a 64-byte response, a
// megabyte of idle heap) would flake on irrelevant shifts.
const (
	allocFloor = 16
	bytesFloor = 1024
	heapFloor  = 64 << 20 // peak live heap, 64 MiB
)

// guarded lists the counters whose growth fails the comparison: more
// pivots, augmentations, or nodes for the same fixed workloads means the
// solvers got algorithmically worse.
var guarded = map[string]bool{
	"lp.pivots":          true,
	"mcmf.augmentations": true,
	"ilp.nodes":          true,
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "maximum allowed fractional increase of a guarded counter")
	flag.Parse()

	var oldPath, newPath string
	switch flag.NArg() {
	case 0:
		matches, err := filepath.Glob("BENCH_*.json")
		if err != nil {
			fail("%v", err)
		}
		if len(matches) < 2 {
			fmt.Printf("benchcmp: %d BENCH_*.json file(s) found, need two — nothing to compare\n", len(matches))
			return
		}
		sort.Strings(matches) // BENCH_<ISO date>.json sorts chronologically
		oldPath, newPath = matches[len(matches)-2], matches[len(matches)-1]
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold 0.10] [old.json new.json]")
		os.Exit(2)
	}

	oldRep := load(oldPath)
	newRep := load(newPath)
	fmt.Printf("benchcmp: %s (%s, cpus %d, gomaxprocs %d) -> %s (%s, cpus %d, gomaxprocs %d)\n",
		oldPath, oldRep.Date, oldRep.CPUs, oldRep.GoMaxProcs, newPath, newRep.Date, newRep.CPUs, newRep.GoMaxProcs)
	if oldRep.CPUs != newRep.CPUs || oldRep.GoMaxProcs != newRep.GoMaxProcs {
		fmt.Println("benchcmp: WARNING: the reports come from different cpus/gomaxprocs; allocation profiles of worker-pool entries are not comparable")
	}

	failures := compareAllocs(oldRep, newRep, *threshold)

	if len(oldRep.Counters) == 0 {
		fmt.Println("benchcmp: old report has no counter snapshot; skipping counters")
	} else {
		oldVals := map[string]int64{}
		for _, c := range oldRep.Counters {
			oldVals[c.Name] = c.Value
		}
		for _, c := range newRep.Counters {
			old, ok := oldVals[c.Name]
			if !ok {
				fmt.Printf("  %-24s %12d  (new counter, no baseline)\n", c.Name, c.Value)
				continue
			}
			delta := 0.0
			if old != 0 {
				delta = float64(c.Value-old) / float64(old)
			}
			status := ""
			if guarded[c.Name] && old > 0 && delta > *threshold {
				status = "  REGRESSION"
				failures++
			}
			fmt.Printf("  %-24s %12d -> %12d  (%+.1f%%)%s\n", c.Name, old, c.Value, 100*delta, status)
		}
	}
	// Per-stage latency histograms: informational only. A histogram block in
	// the new report with no counterpart in the baseline is the expected
	// state right after the block was introduced — report it as new, never
	// gate it.
	if len(newRep.Histograms) > 0 {
		oldP99 := map[string]float64{}
		for _, h := range oldRep.Histograms {
			oldP99[h.Name] = h.P99MS
		}
		for _, h := range newRep.Histograms {
			if old, ok := oldP99[h.Name]; ok {
				fmt.Printf("  hist %-24s p99 %8.2f ms -> %8.2f ms (n=%d, not gated)\n", h.Name, old, h.P99MS, h.Count)
			} else {
				fmt.Printf("  hist %-24s p99 %8.2f ms (n=%d)  (new, no baseline)\n", h.Name, h.P99MS, h.Count)
			}
		}
	}

	if failures > 0 {
		fail("%d guarded measure(s) failed (regression beyond %.0f%% or lost coverage)", failures, 100**threshold)
	}
}

// compareAllocs gates the allocation profile of every benchmark entry both
// reports share: an entry fails when allocs_per_op, bytes_per_op, or the
// sampled peak heap grew by more than threshold AND the growth clears the
// matching absolute floor, unless the new report acknowledges the entry.
// Entries only the new report has are informational; entries only the old
// report has fail unless the new report's skipped list names them.
func compareAllocs(oldRep, newRep report, threshold float64) int {
	type profile struct{ allocs, bytes, peak int64 }
	oldVals := map[string]profile{}
	for _, b := range oldRep.Benchmarks {
		oldVals[b.Name] = profile{b.AllocsPerOp, b.BytesPerOp, b.PeakHeapBytes}
	}
	if len(oldVals) == 0 {
		fmt.Println("benchcmp: old report has no benchmarks section; skipping alloc gate")
		return 0
	}
	gate := func(old, new, floor int64) (string, bool) {
		delta := 0.0
		if old != 0 {
			delta = float64(new-old) / float64(old)
		}
		bad := new-old > floor && (old == 0 || delta > threshold)
		return fmt.Sprintf("%d -> %d (%+.1f%%)", old, new, 100*delta), bad
	}
	acked := map[string]bool{}
	for _, name := range newRep.Acknowledged {
		acked[name] = true
	}
	failures := 0
	seen := map[string]bool{}
	for _, b := range newRep.Benchmarks {
		seen[b.Name] = true
		old, ok := oldVals[b.Name]
		if !ok {
			fmt.Printf("  %-32s allocs %12d, bytes %12d  (new, no baseline)\n", b.Name, b.AllocsPerOp, b.BytesPerOp)
			continue
		}
		aStr, aBad := gate(old.allocs, b.AllocsPerOp, allocFloor)
		bStr, bBad := gate(old.bytes, b.BytesPerOp, bytesFloor)
		status := ""
		hBad := false
		if old.peak > 0 && b.PeakHeapBytes > 0 {
			_, hBad = gate(old.peak, b.PeakHeapBytes, heapFloor)
		}
		switch {
		case (aBad || bBad || hBad) && acked[b.Name]:
			// The new report declares this change deliberate; report it
			// without failing so the trade stays visible in the log.
			status = "  acknowledged"
		case aBad || bBad || hBad:
			status = "  REGRESSION"
			failures++
		}
		fmt.Printf("  %-32s allocs %s, bytes %s%s\n", b.Name, aStr, bStr, status)
	}
	// Coverage gate: every old entry must either still run or be declared
	// skipped by the new report.
	skipped := map[string]bool{}
	for _, name := range newRep.Skipped {
		skipped[name] = true
	}
	for _, b := range oldRep.Benchmarks {
		switch {
		case seen[b.Name]:
		case skipped[b.Name]:
			fmt.Printf("  %-32s (skipped by new report)\n", b.Name)
		default:
			fmt.Printf("  %-32s MISSING from new report (not in its skipped list)\n", b.Name)
			failures++
		}
	}
	return failures
}

func load(path string) report {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		fail("%s: %v", path, err)
	}
	return r
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcmp: "+format+"\n", args...)
	os.Exit(1)
}
