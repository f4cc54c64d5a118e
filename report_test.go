package operon

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func TestReport(t *testing.T) {
	res := verifyDesign(t)
	out := res.Report(5)
	for _, want := range []string{"route report", "class", "totals:", "mW"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Truncation marker appears when nets exceed the cap.
	if len(res.Nets) > 5 && !strings.Contains(out, "more nets") {
		t.Error("report not truncated")
	}
	// Full report lists every net.
	full := res.Report(0)
	if strings.Contains(full, "more nets") {
		t.Error("untruncated report claims truncation")
	}
	lines := strings.Count(full, "\n")
	if lines < len(res.Nets)+3 {
		t.Errorf("full report has %d lines for %d nets", lines, len(res.Nets))
	}
}

func TestClassify(t *testing.T) {
	res := verifyDesign(t)
	counts := map[RouteClass]int{}
	for i := range res.Nets {
		c := res.Classify(i)
		counts[c]++
		cand := res.Nets[i].Cands[res.Selection.Choice[i]]
		switch c {
		case RouteElectrical:
			if len(cand.OpticalSegs) != 0 {
				t.Errorf("net %d: electrical class with optical segments", i)
			}
		case RouteOptical:
			if len(cand.OpticalSegs) == 0 || len(cand.ElecSegs) != 0 {
				t.Errorf("net %d: optical class with wrong segments", i)
			}
		case RouteMixed:
			if len(cand.OpticalSegs) == 0 || len(cand.ElecSegs) == 0 {
				t.Errorf("net %d: mixed class with missing segments", i)
			}
		}
	}
	if counts[RouteOptical] == 0 {
		t.Error("no optical routes in the verify design")
	}
	for _, c := range []RouteClass{RouteElectrical, RouteOptical, RouteMixed} {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
}

// TestClassifyAcrossFlows pins the route-class breakdown of all three
// flows: the electrical baseline is copper-only, the GLOW-style optical
// baseline never mixes (optical where feasible, electrical fallback
// otherwise), and the co-design flow is the only one allowed to produce
// mixed routes.
func TestClassifyAcrossFlows(t *testing.T) {
	d := smallDesign(t)
	cfg := DefaultConfig()

	elec, err := RunContextWith(context.Background(), d, withMode(cfg, ModeElectrical), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range elec.Nets {
		if c := elec.Classify(i); c != RouteElectrical {
			t.Fatalf("electrical flow: net %d classified %v", i, c)
		}
	}
	if !strings.Contains(elec.Report(0), "0 optical, 0 mixed") {
		t.Error("electrical flow report counts optical routes")
	}

	opt, err := RunContextWith(context.Background(), d, withMode(cfg, ModeOptical), nil)
	if err != nil {
		t.Fatal(err)
	}
	optCounts := map[RouteClass]int{}
	for i := range opt.Nets {
		c := opt.Classify(i)
		optCounts[c]++
		if c == RouteMixed {
			t.Fatalf("optical flow: net %d classified mixed", i)
		}
	}
	if optCounts[RouteOptical] == 0 {
		t.Error("optical flow produced no optical routes")
	}

	op, err := RunContextWith(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	opCounts := map[RouteClass]int{}
	for i := range op.Nets {
		opCounts[op.Classify(i)]++
	}
	if got := opCounts[RouteElectrical] + opCounts[RouteOptical] + opCounts[RouteMixed]; got != len(op.Nets) {
		t.Fatalf("classes cover %d of %d nets", got, len(op.Nets))
	}
	if opCounts[RouteOptical]+opCounts[RouteMixed] == 0 {
		t.Error("co-design flow selected no optical routes at all")
	}
	// The report's totals line agrees with Classify.
	want := fmt.Sprintf("totals: %d optical, %d mixed, %d electrical",
		opCounts[RouteOptical], opCounts[RouteMixed], opCounts[RouteElectrical])
	if out := op.Report(0); !strings.Contains(out, want) {
		t.Errorf("report totals do not match Classify: want %q in\n%s", want, out)
	}
}

func TestReportEmpty(t *testing.T) {
	var r Result
	if out := r.Report(3); !strings.Contains(out, "no complete selection") {
		t.Errorf("empty report: %q", out)
	}
}
