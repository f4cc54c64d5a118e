package operon

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"operon/internal/benchgen"
	"operon/internal/signal"
)

// goldenOutcome is the exact output of one flow run that the golden table
// pins: the power's IEEE-754 bits, an FNV-1a digest of Selection.Choice
// (with its length), the final WDM count, and the flow/degradation labels.
type goldenOutcome struct {
	PowerBits  uint64
	ChoiceLen  int
	ChoiceHash uint64
	FinalWDMs  int
	Flow       string
	Degraded   bool
	StopReason StopReason
}

func (g goldenOutcome) String() string {
	return fmt.Sprintf("{0x%016x, %d, 0x%016x, %d, %q, %v, %q}",
		g.PowerBits, g.ChoiceLen, g.ChoiceHash, g.FinalWDMs, g.Flow, g.Degraded, g.StopReason)
}

func outcomeOf(r *Result) goldenOutcome {
	h := fnv.New64a()
	for _, c := range r.Selection.Choice {
		fmt.Fprintf(h, "%d,", c)
	}
	return goldenOutcome{
		PowerBits:  math.Float64bits(r.PowerMW),
		ChoiceLen:  len(r.Selection.Choice),
		ChoiceHash: h.Sum64(),
		FinalWDMs:  r.WDMStats.FinalWDMs,
		Flow:       r.Flow,
		Degraded:   r.Degraded,
		StopReason: r.StopReason,
	}
}

// goldenDesign generates a Table 1 benchmark by name.
func goldenDesign(t *testing.T, name string) signal.Design {
	t.Helper()
	spec, err := benchgen.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := benchgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFlowGoldenOutputs pins the exact output of every flow (the three
// OPERON selection modes and the two baselines) on I1 and I2, under a live
// and an already-expired context. The ILP rows run under a 20 ms
// ILPTimeLimit: the root relaxation of either design takes tens of seconds,
// so the budget always expires before the first incumbent and the outcome
// (the cheaper of the repaired greedy selection and the LR fallback) does
// not depend on machine speed. Any refactor of the flow must leave every
// row bit-identical.
func TestFlowGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 20 flows on I1/I2")
	}
	golden := map[string]goldenOutcome{
		"I1/lr/live":            {0x40ac5007350648ae, 356, 0x21144409de6db4fc, 200, "operon-lr", false, ""},
		"I1/lr/expired":         {0x40c5e6c6720a2b3f, 356, 0x1fd5765075f662a5, 0, "operon-lr", true, "deadline"},
		"I1/ilp/live":           {0x40ac4febb78ddda1, 356, 0x1fd5765075f662a5, 200, "operon-ilp", true, "deadline"},
		"I1/ilp/expired":        {0x40c5e6c6720a2b3f, 356, 0x1fd5765075f662a5, 0, "operon-ilp", true, "deadline"},
		"I1/greedy/live":        {0x40ac4febb78ddda1, 356, 0x1fd5765075f662a5, 200, "operon-greedy", false, ""},
		"I1/greedy/expired":     {0x40c5e6c6720a2b3f, 356, 0x1fd5765075f662a5, 0, "operon-greedy", true, "deadline"},
		"I1/electrical/live":    {0x40c5e6c6720a2b3f, 356, 0x1fd5765075f662a5, 0, "electrical", false, ""},
		"I1/electrical/expired": {0x40c5e6c6720a2b3f, 356, 0x1fd5765075f662a5, 0, "electrical", false, ""},
		"I1/optical/live":       {0x40afa2c8c8052fe8, 356, 0x1fd5765075f662a5, 195, "optical", false, ""},
		"I1/optical/expired":    {0x40c5e6c6720a2b3f, 356, 0x1fd5765075f662a5, 0, "optical", true, "deadline"},
		"I2/lr/live":            {0x409b35170544b575, 837, 0x43e021de39852198, 76, "operon-lr", false, ""},
		"I2/lr/expired":         {0x40ba0b60be50fded, 837, 0xea65981d8a10e219, 0, "operon-lr", true, "deadline"},
		"I2/ilp/live":           {0x409b33e1fa600d3d, 837, 0xea65981d8a10e219, 77, "operon-ilp", true, "deadline"},
		"I2/ilp/expired":        {0x40ba0b60be50fded, 837, 0xea65981d8a10e219, 0, "operon-ilp", true, "deadline"},
		"I2/greedy/live":        {0x409b33e1fa600d3d, 837, 0xea65981d8a10e219, 77, "operon-greedy", false, ""},
		"I2/greedy/expired":     {0x40ba0b60be50fded, 837, 0xea65981d8a10e219, 0, "operon-greedy", true, "deadline"},
		"I2/electrical/live":    {0x40ba0b60be50fded, 837, 0xea65981d8a10e219, 0, "electrical", false, ""},
		"I2/electrical/expired": {0x40ba0b60be50fded, 837, 0xea65981d8a10e219, 0, "electrical", false, ""},
		"I2/optical/live":       {0x40a1734d887f0e27, 837, 0xea65981d8a10e219, 78, "optical", false, ""},
		"I2/optical/expired":    {0x40ba0b60be50fded, 837, 0xea65981d8a10e219, 0, "optical", true, "deadline"},
	}
	for _, bench := range []string{"I1", "I2"} {
		d := goldenDesign(t, bench)
		for _, flow := range []string{"lr", "ilp", "greedy", "electrical", "optical"} {
			for _, expired := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/%s", bench, flow, map[bool]string{false: "live", true: "expired"}[expired])
				ctx, cancel := context.WithCancel(context.Background())
				if expired {
					cancel()
					ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
				}
				cfg := DefaultConfig()
				cfg.ILPTimeLimit = 20 * time.Millisecond
				res, err := goldenRun(ctx, d, cfg, flow)
				cancel()
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := outcomeOf(res)
				if want, ok := golden[key]; !ok || got != want {
					t.Errorf("%q: %v,  // want %v (pinned: %v)", key, got, want, ok)
				}
			}
		}
	}
}

// goldenRun dispatches one golden-table flow name to its entry point.
func goldenRun(ctx context.Context, d signal.Design, cfg Config, flow string) (*Result, error) {
	switch flow {
	case "ilp":
		cfg.Mode = ModeILP
	case "greedy":
		cfg.Mode = ModeGreedy
	case "electrical":
		cfg.Mode = ModeElectrical
	case "optical":
		cfg.Mode = ModeOptical
	}
	return RunContextWith(ctx, d, cfg, nil)
}
