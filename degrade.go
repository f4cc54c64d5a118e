package operon

import (
	"context"

	"operon/internal/obs"
	"operon/internal/selection"
)

// StopReason explains why a flow run stopped before completing its full
// pipeline. It is set on Result alongside Degraded and maps the paper's
// ">3000 s" timeout rows onto machine-readable values (see EXPERIMENTS.md).
type StopReason string

const (
	// StopNone means the run completed its full pipeline (Degraded=false).
	StopNone StopReason = ""
	// StopDeadline means a time budget expired: the context deadline,
	// Config.ILPTimeLimit, or the branch-and-bound node budget.
	StopDeadline StopReason = "deadline"
	// StopCanceled means the context was cancelled outright (shutdown or
	// caller abort rather than a deadline).
	StopCanceled StopReason = "canceled"
)

// stopReasonFor derives the StopReason for a degradation observed under
// ctx: explicit cancellation wins; everything else (ctx deadline, the ILP
// time limit, the node budget) is a deadline.
func stopReasonFor(ctx context.Context) StopReason {
	if ctx.Err() == context.Canceled {
		return StopCanceled
	}
	return StopDeadline
}

// markDegraded records that stage degraded the run and why, emitting the
// flow/degraded event and the flow.degraded counter. Only the first
// degradation sets the StopReason (later stages degrade for the same root
// cause); the event is emitted per degrading stage so traces show the full
// ladder.
func (r *Result) markDegraded(ctx context.Context, cfg Config, stage string) {
	reason := stopReasonFor(ctx)
	if !r.Degraded {
		r.Degraded = true
		r.StopReason = reason
	}
	cfg.Obs.Counter("flow.degraded").Inc()
	if cfg.Obs != nil {
		cfg.Obs.Event("flow/degraded", obs.LaneFlow,
			obs.S("stage", stage), obs.S("reason", string(reason)))
	}
}

// floor is the bottom rung of the degradation ladder: it reruns the
// candidates and selection stages of r (which must already carry HyperNets)
// with ModeElectrical's generator and selector, so every hyper net takes its
// all-electrical RSMT route. The result is always feasible — electrical
// wires have no detection constraint — and cheap enough to compute that the
// floor deliberately ignores the (already cancelled) context: the pool runs
// under context.Background(), and an expired deadline still yields a legal
// routing instead of an error. The WDM stage is skipped: an all-electrical
// selection has no optical connections. The stage spans are re-recorded for
// the floor work, so StageTimes reflects the path actually taken.
func (r *Result) floor(ctx context.Context, cfg Config, ws *Workspace) error {
	r.markDegraded(ctx, cfg, "candidates")

	stop := startStage(cfg.Obs, "stage/candidates", &r.Times.Candidates)
	nets := make([]selection.Net, len(r.HyperNets))
	all := make([]int, len(nets))
	for i := range all {
		all[i] = i
	}
	if err := buildNets(context.Background(), floorGen, all, r.HyperNets, nil, nil, nets, cfg, ws); err != nil {
		return err
	}
	r.Nets = nets
	stop(obs.I("nets", len(nets)), obs.S("degraded", "electrical-floor"))

	inst, err := selection.NewInstance(nets, cfg.Lib)
	if err != nil {
		return err
	}
	stop = startStage(cfg.Obs, "stage/selection", &r.Times.Selection)
	if err := runSelection(ctx, cfg, ModeElectrical, ws, inst, r); err != nil {
		return err
	}
	r.PowerMW = r.Selection.PowerMW
	stop(obs.S("mode", "electrical-floor"))
	return nil
}
