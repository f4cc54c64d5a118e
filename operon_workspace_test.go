package operon

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"operon/internal/obs"
)

// TestWorkspaceReuseBitIdentical is the correctness contract of the
// workspace layer: repeated RunContextWith solves sharing one Workspace —
// across different designs and worker counts — must stay bit-identical to
// fresh-workspace runs. Any cross-worker scratch aliasing or state leaking
// from one run into the next shows up either here (as a result diff) or
// under the race detector, which this test is built to run beneath (the
// root package is part of `make race`).
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	designs := determinismCases(t)
	before := runtime.NumGoroutine()

	// Reference results: fresh workspace, one worker.
	refs := make([]*Result, len(designs))
	for i, d := range designs {
		cfg := DefaultConfig()
		cfg.Workers = 1
		res, err := RunContextWith(context.Background(), d, cfg, nil)
		if err != nil {
			t.Fatalf("%s reference: %v", d.Name, err)
		}
		refs[i] = res
	}

	// One shared workspace serves every subsequent run, interleaving
	// designs and worker counts so slot scratch is reused across both.
	ws := NewWorkspace()
	for round := 0; round < 3; round++ {
		for _, workers := range []int{1, 4, 8} {
			for i, d := range designs {
				cfg := DefaultConfig()
				cfg.Workers = workers
				res, err := RunContextWith(context.Background(), d, cfg, ws)
				if err != nil {
					t.Fatalf("%s round=%d workers=%d: %v", d.Name, round, workers, err)
				}
				ref := refs[i]
				if res.PowerMW != ref.PowerMW {
					t.Errorf("%s round=%d workers=%d: PowerMW %v, want %v",
						d.Name, round, workers, res.PowerMW, ref.PowerMW)
				}
				if !reflect.DeepEqual(res.Selection, ref.Selection) {
					t.Errorf("%s round=%d workers=%d: Selection differs from fresh-workspace run",
						d.Name, round, workers)
				}
				if !reflect.DeepEqual(res.Connections, ref.Connections) {
					t.Errorf("%s round=%d workers=%d: optical connections differ",
						d.Name, round, workers)
				}
				if !reflect.DeepEqual(res.Assignment, ref.Assignment) {
					t.Errorf("%s round=%d workers=%d: WDM assignment differs",
						d.Name, round, workers)
				}
				if res.WDMStats != ref.WDMStats {
					t.Errorf("%s round=%d workers=%d: WDMStats %+v, want %+v",
						d.Name, round, workers, res.WDMStats, ref.WDMStats)
				}
			}
		}
	}
	checkNoGoroutineLeak(t, before)
}

// TestWorkspaceReuseCounters pins the observability contract: a second run
// on the same workspace must reuse every worker scratch it touches — the
// ws.worker.create counter stays flat while ws.worker.reuse grows.
func TestWorkspaceReuseCounters(t *testing.T) {
	d := determinismCases(t)[0]
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Obs = obs.New(nil)

	ws := NewWorkspace()
	// The pool hands out items dynamically, so on a loaded machine one run
	// need not touch every worker slot; warm up until each slot owns its
	// scratch (one creation per slot), so the run below must reuse them all.
	for k := 0; k < 20 && counterValue(t, cfg.Obs, "ws.worker.create") < int64(cfg.Workers); k++ {
		if _, err := RunContextWith(context.Background(), d, cfg, ws); err != nil {
			t.Fatal(err)
		}
	}
	created := counterValue(t, cfg.Obs, "ws.worker.create")
	if created == 0 {
		t.Fatal("first run created no worker scratch — grabScratch is not wired in")
	}
	if _, err := RunContextWith(context.Background(), d, cfg, ws); err != nil {
		t.Fatal(err)
	}
	if c := counterValue(t, cfg.Obs, "ws.worker.create"); c != created {
		t.Errorf("second run on the same workspace created %d new scratches, want 0", c-created)
	}
	if r := counterValue(t, cfg.Obs, "ws.worker.reuse"); r == 0 {
		t.Error("second run reported no scratch reuse")
	}
}

// counterValue reads one counter from a tracer snapshot (0 when absent).
func counterValue(t *testing.T, tr *obs.Tracer, name string) int64 {
	t.Helper()
	for _, c := range tr.Snapshot() {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
