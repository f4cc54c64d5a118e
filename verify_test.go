package operon

import (
	"context"
	"strings"
	"testing"

	"operon/internal/benchgen"
)

func verifyDesign(t *testing.T) *Result {
	t.Helper()
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "drc", DieCM: 4, Groups: 20, BitsPerGroup: 8, BitsJitter: 2,
		MinSinkClusters: 1, MaxSinkClusters: 2, LocalFraction: 0.2,
		LocalSpanCM: 0.2, GlobalSpanCM: 1.2, RegionSpreadCM: 0.02,
		LanePitchCM: 0.2, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContextWith(context.Background(), d, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerifyCleanResult(t *testing.T) {
	res := verifyDesign(t)
	if issues := Verify(res, DefaultConfig()); len(issues) != 0 {
		for _, is := range issues {
			t.Errorf("unexpected DRC issue: %v", is)
		}
	}
}

func TestVerifyAllFlowsClean(t *testing.T) {
	// Every flow — both baselines and all three selection modes — must
	// produce DRC-clean results on all five benchmarks' smaller cousins.
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "drc-all", DieCM: 4, Groups: 30, BitsPerGroup: 4, BitsJitter: 1,
		MinSinkClusters: 1, MaxSinkClusters: 1, LocalFraction: 0.1,
		LocalSpanCM: 0.2, GlobalSpanCM: 1.1, RegionSpreadCM: 0.02,
		LanePitchCM: 0.2, Seed: 66,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, mode := range []Mode{ModeLR, ModeGreedy} {
		c := cfg
		c.Mode = mode
		res, err := RunContextWith(context.Background(), d, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if issues := Verify(res, c); len(issues) != 0 {
			t.Errorf("%v: %d DRC issues, first: %v", mode, len(issues), issues[0])
		}
	}
	glow, err := RunContextWith(context.Background(), d, withMode(cfg, ModeOptical), nil)
	if err != nil {
		t.Fatal(err)
	}
	if issues := Verify(glow, cfg); len(issues) != 0 {
		t.Errorf("optical baseline: %d DRC issues, first: %v", len(issues), issues[0])
	}
	elec, err := RunContextWith(context.Background(), d, withMode(cfg, ModeElectrical), nil)
	if err != nil {
		t.Fatal(err)
	}
	if issues := Verify(elec, cfg); len(issues) != 0 {
		t.Errorf("electrical baseline: %d DRC issues, first: %v", len(issues), issues[0])
	}
}

func TestVerifyCatchesEmptyResult(t *testing.T) {
	if issues := Verify(&Result{}, DefaultConfig()); len(issues) == 0 {
		t.Error("empty result passed DRC")
	}
	if issues := Verify(nil, DefaultConfig()); len(issues) == 0 {
		t.Error("nil result passed DRC")
	}
}

func TestVerifyCatchesCorruptedSelection(t *testing.T) {
	res := verifyDesign(t)
	res.Selection.Choice[0] = 99
	issues := Verify(res, DefaultConfig())
	if len(issues) == 0 {
		t.Fatal("out-of-range choice passed DRC")
	}
	if issues[0].Rule != "selection" {
		t.Errorf("rule = %q, want selection", issues[0].Rule)
	}
}

func TestVerifyCatchesBudgetTampering(t *testing.T) {
	res := verifyDesign(t)
	// Shrinking the budget after routing must surface loss violations for
	// any result with optical content.
	cfg := DefaultConfig()
	cfg.Lib.MaxLossDB = 0.01
	issues := Verify(res, cfg)
	found := false
	for _, is := range issues {
		if is.Rule == "loss-budget" {
			found = true
			if !strings.Contains(is.Detail, "dB") {
				t.Errorf("loss detail malformed: %v", is)
			}
		}
	}
	if !found && len(res.Connections) > 0 {
		t.Error("tiny budget produced no loss-budget issues")
	}
}

func TestVerifyCatchesOverloadedWDM(t *testing.T) {
	res := verifyDesign(t)
	if len(res.Connections) == 0 {
		t.Skip("no optical connections")
	}
	// Corrupt a share to exceed capacity.
	for ci := range res.Assignment.Shares {
		if len(res.Assignment.Shares[ci]) > 0 {
			res.Assignment.Shares[ci][0].Bits += DefaultConfig().Lib.WDMCapacity
			break
		}
	}
	issues := Verify(res, DefaultConfig())
	var rules []string
	for _, is := range issues {
		rules = append(rules, is.Rule)
	}
	joined := strings.Join(rules, ",")
	if !strings.Contains(joined, "wdm-capacity") && !strings.Contains(joined, "wdm-coverage") {
		t.Errorf("corrupted shares passed DRC: %v", rules)
	}
}

func TestIssueString(t *testing.T) {
	global := Issue{Rule: "wdm-spacing", Net: -1, Detail: "too close"}
	if !strings.HasPrefix(global.String(), "wdm-spacing:") {
		t.Errorf("global issue string: %q", global.String())
	}
	local := Issue{Rule: "loss-budget", Net: 3, Detail: "over"}
	if !strings.Contains(local.String(), "net 3") {
		t.Errorf("net issue string: %q", local.String())
	}
}
