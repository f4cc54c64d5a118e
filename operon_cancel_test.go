package operon

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"operon/internal/obs"
)

// cancelOnRecord is an obs.Sink that cancels a context the first time a
// span or event with the given name is recorded — a machine-speed-
// independent way to cancel the flow at an exact pipeline point.
type cancelOnRecord struct {
	obs.Nop
	name   string
	cancel context.CancelFunc
	once   sync.Once
}

// Span implements obs.Sink.
func (c *cancelOnRecord) Span(r obs.SpanRecord) {
	if r.Name == c.name {
		c.once.Do(c.cancel)
	}
}

// Event implements obs.Sink.
func (c *cancelOnRecord) Event(r obs.EventRecord) {
	if r.Name == c.name {
		c.once.Do(c.cancel)
	}
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// pre-test baseline (cancelled runs must drain their worker pools, not
// abandon them); it dumps all stacks on timeout.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d before, %d after cancelled runs\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// requireFeasibleDegraded asserts the common contract of every degraded
// result: no error, Degraded set with the expected reason, and a routing
// that passes the independent design-rule checker.
func requireFeasibleDegraded(t *testing.T, res *Result, err error, cfg Config, reason StopReason) {
	t.Helper()
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	if !res.Degraded {
		t.Fatalf("Degraded not set (stop reason %q)", res.StopReason)
	}
	if res.StopReason != reason {
		t.Fatalf("StopReason = %q, want %q", res.StopReason, reason)
	}
	if res.PowerMW <= 0 {
		t.Fatalf("degraded result has no power: %v", res.PowerMW)
	}
	if len(res.Selection.Choice) != len(res.Nets) {
		t.Fatalf("selection covers %d of %d nets", len(res.Selection.Choice), len(res.Nets))
	}
	if issues := Verify(res, cfg); len(issues) > 0 {
		t.Fatalf("degraded result violates design rules: %v", issues)
	}
}

// TestRunContextExpiredReturnsFloorFast pins the bottom of the degradation
// ladder: a context that is already expired must still yield a feasible
// (all-electrical) routing, in well under 100 ms.
func TestRunContextExpiredReturnsFloorFast(t *testing.T) {
	d := determinismCases(t)[0]
	cfg := DefaultConfig()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()

	start := time.Now()
	res, err := RunContextWith(ctx, d, cfg, nil)
	elapsed := time.Since(start)
	requireFeasibleDegraded(t, res, err, cfg, StopDeadline)
	if elapsed > 100*time.Millisecond {
		t.Errorf("expired-context run took %s, want < 100ms", elapsed)
	}
	for i, j := range res.Selection.Choice {
		if !res.Nets[i].Cands[j].AllElectrical {
			t.Fatalf("net %d: floor selected a non-electrical candidate", i)
		}
	}
	if len(res.Connections) != 0 {
		t.Errorf("floor result has %d optical connections, want 0", len(res.Connections))
	}
	checkNoGoroutineLeak(t, before)
}

// TestRunContextCancelMidILP cancels the flow deterministically right as
// the candidate stage closes, so the ILP solve starts under a cancelled
// context: it must report TimedOut with a feasible incumbent, the flow
// must run the LR fallback, and the combined result must stay legal.
func TestRunContextCancelMidILP(t *testing.T) {
	d := determinismCases(t)[0]
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultConfig()
	cfg.Mode = ModeILP
	cfg.Obs = obs.New(&cancelOnRecord{name: "stage/candidates", cancel: cancel})

	res, err := RunContextWith(ctx, d, cfg, nil)
	requireFeasibleDegraded(t, res, err, cfg, StopCanceled)
	if res.ILP == nil || !res.ILP.TimedOut {
		t.Fatalf("cancelled ILP did not report TimedOut: %+v", res.ILP)
	}
	if res.LR == nil {
		t.Fatal("degraded ILP run did not record the LR fallback")
	}
	if got := cfg.Obs.Counter("flow.degraded").Value(); got < 1 {
		t.Errorf("flow.degraded counter = %d, want >= 1", got)
	}
	if err := cfg.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeak(t, before)
}

// TestRunContextCancelMidLR cancels on the first lr/iterate event: the LR
// solver must stop at the next iteration boundary and still hand back a
// repaired, feasible selection.
func TestRunContextCancelMidLR(t *testing.T) {
	d := determinismCases(t)[0]
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultConfig()
	cfg.Obs = obs.New(&cancelOnRecord{name: "lr/iterate", cancel: cancel})

	res, err := RunContextWith(ctx, d, cfg, nil)
	requireFeasibleDegraded(t, res, err, cfg, StopCanceled)
	if res.LR == nil || !res.LR.Stopped {
		t.Fatalf("cancelled LR did not report Stopped: %+v", res.LR)
	}
	if res.LR.Iters >= 10 {
		t.Errorf("LR ran all %d iterations despite cancellation", res.LR.Iters)
	}
	checkNoGoroutineLeak(t, before)
}
