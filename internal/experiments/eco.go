package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	operon "operon"
	"operon/internal/benchgen"
)

// ECORow reports the incremental re-synthesis speedup at one edit size:
// `Groups` groups of the case receive a one-pin move, and the session's
// warm Resolve is timed against a cold full solve of the same edited
// design. The two produce bit-identical results (the Session contract), so
// the time ratio is a pure reuse measurement.
type ECORow struct {
	// Case names the benchmark.
	Case string
	// EditedGroups is how many groups the edit script touched (0 = empty
	// script, the full-reuse probe).
	EditedGroups int
	// TotalGroups is the case's group count.
	TotalGroups int
	// ResolveMS is the warm incremental resolve wall clock.
	ResolveMS float64
	// ColdMS is the cold full solve wall clock on the same edited design.
	ColdMS float64
	// Speedup is ColdMS/ResolveMS.
	Speedup float64
	// GroupsReused and CandsReused report what the resolve carried over.
	GroupsReused int
	CandsReused  int
}

// ECO measures incremental re-synthesis speedup as a function of edit size
// on one case: an empty script, a single-group pin move, a quarter of the
// groups, and every group. Each measurement re-solves the session, then
// cold-solves the identical edited design for the ratio. WDM is skipped so
// the measurement isolates the incremental stages.
func ECO(caseName string) ([]ECORow, error) {
	if caseName == "" {
		caseName = "I3"
	}
	spec, err := benchgen.SpecByName(caseName)
	if err != nil {
		return nil, err
	}
	design, err := benchgen.Generate(spec)
	if err != nil {
		return nil, err
	}
	cfg := operon.DefaultConfig()
	cfg.SkipWDM = true

	sess := operon.NewSession(design, cfg)
	if _, _, err := sess.Resolve(context.Background()); err != nil {
		return nil, fmt.Errorf("eco %s: cold solve: %w", caseName, err)
	}
	nG := len(design.Groups)
	sizes := []int{0, 1, nG / 4, nG}
	var rows []ECORow
	for _, k := range sizes {
		// Move one pin in each of the first k groups by a sub-millimetre
		// nudge — enough to dirty the group, small enough to stay on-die.
		edits := make([]operon.Edit, 0, k)
		for gi := 0; gi < k; gi++ {
			p := sess.Design().Groups[gi].Bits[0].Driver
			p.X += 0.013
			if p.X > design.Die.Hi.X {
				p.X = design.Die.Hi.X
			}
			edits = append(edits, operon.MoveTerminal(gi, 0, -1, p))
		}
		if _, err := sess.Apply(edits...); err != nil {
			return nil, fmt.Errorf("eco %s: apply %d edits: %w", caseName, k, err)
		}
		start := time.Now()
		_, stats, err := sess.Resolve(context.Background())
		if err != nil {
			return nil, fmt.Errorf("eco %s: resolve %d edits: %w", caseName, k, err)
		}
		resolveMS := float64(time.Since(start)) / float64(time.Millisecond)
		start = time.Now()
		if _, err := operon.RunContextWith(context.Background(), sess.Design(), cfg, nil); err != nil {
			return nil, fmt.Errorf("eco %s: cold reference: %w", caseName, err)
		}
		coldMS := float64(time.Since(start)) / float64(time.Millisecond)
		row := ECORow{
			Case: caseName, EditedGroups: k, TotalGroups: nG,
			ResolveMS: resolveMS, ColdMS: coldMS,
			GroupsReused: stats.GroupsReused, CandsReused: stats.CandsReused,
		}
		if resolveMS > 0 {
			row.Speedup = coldMS / resolveMS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatECO renders the edit-size sweep as the EXPERIMENTS.md table.
func FormatECO(rows []ECORow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== ECO: incremental re-synthesis speedup vs edit size ==\n")
	fmt.Fprintf(&b, "%-6s %-14s %12s %10s %9s %13s %12s\n",
		"case", "edited groups", "resolve (ms)", "cold (ms)", "speedup", "groups reused", "cands reused")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %6d/%-7d %12.1f %10.1f %8.1fx %13d %12d\n",
			r.Case, r.EditedGroups, r.TotalGroups, r.ResolveMS, r.ColdMS, r.Speedup,
			r.GroupsReused, r.CandsReused)
	}
	return b.String()
}
