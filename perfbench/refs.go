package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	operon "operon"
	"operon/internal/benchgen"
)

// refsJSON pins, per workload and seed, the quality guard a run must
// reproduce exactly: the power and WDM count of mega-cold's I6 design, and
// summed over eco-edit's unedited designs, exact-ilp's first ilpRefDesigns
// designs and serve-open's hot set. A seed outside the
// table is checked by Verify, the layer replay and the cross-checks alone.
//
//go:embed refs.json
var refsJSON []byte

var references = func() map[string]map[string]quality {
	m := map[string]map[string]quality{}
	if err := json.Unmarshal(refsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: refs.json: %v", err))
	}
	return m
}()

// refQuality recomputes each workload's quality guard for a seed through
// plain library solves of its reference inputs.
var refQuality = map[string]func(seed int64) (quality, error){
	"mega-cold": func(seed int64) (quality, error) {
		return refSum(flowConfig(nproc(), operon.ModeLR), megaSpec(seed))
	},
	"exact-ilp": func(seed int64) (quality, error) {
		specs := make([]benchgen.Spec, ilpRefDesigns)
		for k := range specs {
			specs[k] = ilpSpec(seed, k)
		}
		return refSum(flowConfig(nproc(), operon.ModeILP), specs...)
	},
	"eco-edit": func(seed int64) (quality, error) {
		specs := make([]benchgen.Spec, ecoDesigns)
		for j := range specs {
			specs[j] = ecoSpec(seed, j)
		}
		return refSum(flowConfig(nproc(), operon.ModeLR), specs...)
	},
	"serve-open": func(seed int64) (quality, error) {
		cfg := serveConfig()
		cfg.Workers = nproc() // results do not depend on the worker count
		specs := make([]benchgen.Spec, serveHot)
		for k := range specs {
			specs[k] = hotSpec(seed, k)
		}
		return refSum(cfg, specs...)
	},
}

// refSum solves each spec cold, verifies it, and sums power and WDM count.
func refSum(cfg operon.Config, specs ...benchgen.Spec) (quality, error) {
	var q quality
	for _, spec := range specs {
		d, err := benchgen.Generate(spec)
		if err != nil {
			return quality{}, err
		}
		res, _, err := coldSolve(d, cfg, nil)
		if err == nil {
			err = checkSolve(res, cfg)
		}
		if err != nil {
			return quality{}, fmt.Errorf("%s: %w", spec.Name, err)
		}
		q.PowerMW += res.PowerMW
		q.WDMsUsed += res.WDMStats.FinalWDMs
	}
	return q, nil
}

// printRefs computes the reference table of seeds LO-HI for one workload,
// or for all of them when workload is empty, and prints it in the
// refs.json format.
func printRefs(span, workload string) error {
	lo, hi, ok := strings.Cut(span, "-")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || a > b {
		return fmt.Errorf("--refs wants LO-HI, got %q", span)
	}
	out := map[string]map[string]quality{}
	for name, ref := range refQuality {
		if workload != "" && name != workload {
			continue
		}
		out[name] = map[string]quality{}
		for seed := a; seed <= b; seed++ {
			q, err := ref(seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			out[name][strconv.FormatInt(seed, 10)] = q
		}
		fmt.Fprintf(os.Stderr, "perfbench: references for %s done\n", name)
	}
	if len(out) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
