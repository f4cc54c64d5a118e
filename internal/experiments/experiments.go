// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the synthetic I1–I5 benchmarks:
//
//   - Table 1 — power and CPU comparison of Electrical [14], Optical [4],
//     OPERON (ILP) and OPERON (LR), with the averages/ratio footer;
//   - Fig. 3(b) — FD-BPM power distribution of cascaded Y-branch splitters;
//   - Fig. 8 — number of optical connections vs initial vs final WDMs;
//   - Fig. 9 — optical/electrical power hotspot maps, GLOW vs OPERON.
//
// Each experiment returns structured rows plus a Format function that
// prints the same rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/optics/bpm"
	"operon/internal/power"
)

// Table1Row is one benchmark line of Table 1.
type Table1Row struct {
	Name        string
	Nets        int
	HNets       int
	HPins       int
	ElecPowerMW float64
	OptPowerMW  float64
	ILPPowerMW  float64
	ILPCPU      time.Duration
	ILPTimedOut bool
	LRPowerMW   float64
	LRCPU       time.Duration
	// WDM is the OPERON-LR result, reused by Fig. 8.
	WDM operon.Result
}

// Table1Options tunes the Table 1 run.
type Table1Options struct {
	// Cases restricts the benchmark set; nil runs all five.
	Cases []string
	// ILPTimeLimit is the per-case ILP budget (the paper used 3000 s; the
	// default here is 60 s, scaled to this repository's solver).
	ILPTimeLimit time.Duration
	// SkipILP omits the ILP columns (useful for quick runs).
	SkipILP bool
	// Config overrides the flow configuration; zero value uses defaults.
	Config *operon.Config
}

// Table1 runs the full §5 comparison.
func Table1(opt Table1Options) ([]Table1Row, error) {
	names := opt.Cases
	if len(names) == 0 {
		names = []string{"I1", "I2", "I3", "I4", "I5"}
	}
	limit := opt.ILPTimeLimit
	if limit == 0 {
		limit = 60 * time.Second
	}
	var rows []Table1Row
	for _, name := range names {
		spec, err := benchgen.SpecByName(name)
		if err != nil {
			return nil, err
		}
		design, err := benchgen.Generate(spec)
		if err != nil {
			return nil, err
		}
		cfg := operon.DefaultConfig()
		if opt.Config != nil {
			cfg = *opt.Config
		}

		cfg.Mode = operon.ModeElectrical
		elec, err := operon.RunContextWith(context.Background(), design, cfg, nil)
		if err != nil {
			return nil, err
		}
		cfg.Mode = operon.ModeOptical
		glow, err := operon.RunContextWith(context.Background(), design, cfg, nil)
		if err != nil {
			return nil, err
		}
		cfg.Mode = operon.ModeLR
		lr, err := operon.RunContextWith(context.Background(), design, cfg, nil)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Name:        name,
			Nets:        design.NetCount(),
			HNets:       lr.Stats().HyperNets,
			HPins:       lr.Stats().HyperPins,
			ElecPowerMW: elec.PowerMW,
			OptPowerMW:  glow.PowerMW,
			LRPowerMW:   lr.PowerMW,
			LRCPU:       lr.Times.Selection,
			WDM:         *lr,
		}
		if !opt.SkipILP {
			icfg := cfg
			icfg.Mode = operon.ModeILP
			icfg.ILPTimeLimit = limit
			ilpRes, err := operon.RunContextWith(context.Background(), design, icfg, nil)
			if err != nil {
				return nil, err
			}
			row.ILPPowerMW = ilpRes.PowerMW
			row.ILPCPU = ilpRes.ILP.Elapsed
			row.ILPTimedOut = ilpRes.ILP.TimedOut
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders the rows in the paper's layout, including the
// average and ratio footer. limit is printed for timed-out ILP entries
// (the paper's ">3000" style).
func FormatTable1(rows []Table1Row, limit time.Duration, skipILP bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %7s %7s %7s | %12s | %12s | %12s %10s | %12s %10s\n",
		"Bench", "#Net", "#HNet", "#HPin",
		"Electrical", "Optical", "OPERON(ILP)", "CPU(s)", "OPERON(LR)", "CPU(s)")
	var sumE, sumO, sumI, sumL float64
	anyTimeout := false
	for _, r := range rows {
		ilpPower, ilpCPU := "-", "-"
		if !skipILP {
			ilpPower = fmt.Sprintf("%.2f", r.ILPPowerMW)
			if r.ILPTimedOut {
				ilpCPU = fmt.Sprintf("> %.0f", limit.Seconds())
				anyTimeout = true
			} else {
				ilpCPU = fmt.Sprintf("%.1f", r.ILPCPU.Seconds())
			}
		}
		fmt.Fprintf(&b, "%-6s %7d %7d %7d | %12.2f | %12.2f | %12s %10s | %12.2f %10.3f\n",
			r.Name, r.Nets, r.HNets, r.HPins,
			r.ElecPowerMW, r.OptPowerMW, ilpPower, ilpCPU,
			r.LRPowerMW, r.LRCPU.Seconds())
		sumE += r.ElecPowerMW
		sumO += r.OptPowerMW
		sumI += r.ILPPowerMW
		sumL += r.LRPowerMW
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-6s %7s %7s %7s | %12.2f | %12.2f | %12.2f %10s | %12.2f %10s\n",
			"average", "-", "-", "-", sumE/n, sumO/n, sumI/n, "-", sumL/n, "-")
		fmt.Fprintf(&b, "%-6s %7s %7s %7s | %12.3f | %12.3f | %12.3f %10s | %12.3f %10s\n",
			"ratio", "-", "-", "-", sumE/sumO, 1.0, sumI/sumO, "-", sumL/sumO, "-")
	}
	if anyTimeout {
		b.WriteString("(ILP entries marked \"> t\" hit the time limit; the best feasible\n" +
			" solution found so far is reported, as in the paper's Table 1.)\n")
	}
	return b.String()
}

// Fig3bRow is one splitter-cascade measurement.
type Fig3bRow struct {
	Stages            int
	ArmPowers         []float64
	PerArmLossDB      []float64
	IdealPerArmLossDB float64
	TotalOut          float64
}

// Fig3b runs the FD-BPM Y-branch study for 0..maxStages cascaded splitters.
func Fig3b(maxStages int) ([]Fig3bRow, error) {
	if maxStages <= 0 {
		maxStages = 2
	}
	cfg := bpm.DefaultConfig()
	var rows []Fig3bRow
	for s := 0; s <= maxStages; s++ {
		res, err := bpm.Simulate(cfg, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3bRow{
			Stages:            s,
			ArmPowers:         res.ArmPowers,
			PerArmLossDB:      res.PerArmLossDB,
			IdealPerArmLossDB: res.IdealPerArmLossDB,
			TotalOut:          res.TotalOut,
		})
	}
	return rows, nil
}

// FormatFig3b renders the normalised power distribution of the cascades.
func FormatFig3b(rows []Fig3bRow) string {
	var b strings.Builder
	b.WriteString("Fig. 3(b): FD-BPM normalised power in cascaded 50-50 Y-branch splitters\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %d stage(s): arms =", r.Stages)
		for _, p := range r.ArmPowers {
			fmt.Fprintf(&b, " %.3f", p)
		}
		fmt.Fprintf(&b, "  (total %.3f, per-arm loss", r.TotalOut)
		for _, l := range r.PerArmLossDB {
			fmt.Fprintf(&b, " %.2f", l)
		}
		fmt.Fprintf(&b, " dB vs model %.2f dB)\n", r.IdealPerArmLossDB)
	}
	b.WriteString("  => each Y-branch halves the guided power, matching the\n" +
		"     10*log10(n_s) splitting-loss term of Eq. (2).\n")
	return b.String()
}

// Fig8Row is one benchmark's WDM bars.
type Fig8Row struct {
	Name        string
	Connections int
	InitialWDMs int
	FinalWDMs   int
}

// Reduction returns the final-over-initial WDM saving.
func (r Fig8Row) Reduction() float64 {
	if r.InitialWDMs == 0 {
		return 0
	}
	return 1 - float64(r.FinalWDMs)/float64(r.InitialWDMs)
}

// Fig8 extracts the WDM statistics of the OPERON-LR runs.
func Fig8(rows []Table1Row) []Fig8Row {
	out := make([]Fig8Row, len(rows))
	for i, r := range rows {
		out[i] = Fig8Row{
			Name:        r.Name,
			Connections: r.WDM.WDMStats.Connections,
			InitialWDMs: r.WDM.WDMStats.InitialWDMs,
			FinalWDMs:   r.WDM.WDMStats.FinalWDMs,
		}
	}
	return out
}

// FormatFig8 renders the three normalised bars per case plus the average
// reduction, as the paper's Fig. 8 reports.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Fig. 8: WDMs for optical connections (normalised to #connections = 100%)\n")
	fmt.Fprintf(&b, "  %-5s %12s %14s %12s %10s\n",
		"case", "#conn(100%)", "#initial WDMs", "#final WDMs", "reduction")
	var sumRed float64
	for _, r := range rows {
		init, fin := 0.0, 0.0
		if r.Connections > 0 {
			init = 100 * float64(r.InitialWDMs) / float64(r.Connections)
			fin = 100 * float64(r.FinalWDMs) / float64(r.Connections)
		}
		fmt.Fprintf(&b, "  %-5s %11d  %7d (%3.0f%%) %6d (%3.0f%%) %9.1f%%\n",
			r.Name, r.Connections, r.InitialWDMs, init, r.FinalWDMs, fin, 100*r.Reduction())
		sumRed += r.Reduction()
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "  average final-WDM reduction over placement: %.1f%%\n",
			100*sumRed/float64(len(rows)))
	}
	return b.String()
}

// Fig9Maps bundles the four hotspot grids of Fig. 9.
type Fig9Maps struct {
	Case          string
	GlowOptical   *power.Grid
	GlowElec      *power.Grid
	OperonOptical *power.Grid
	OperonElec    *power.Grid
}

// Fig9 computes the power-density maps of the optical and electrical
// layers for the GLOW-style baseline and OPERON on one case (the paper
// uses I2).
func Fig9(caseName string, rows, cols int) (Fig9Maps, error) {
	spec, err := benchgen.SpecByName(caseName)
	if err != nil {
		return Fig9Maps{}, err
	}
	design, err := benchgen.Generate(spec)
	if err != nil {
		return Fig9Maps{}, err
	}
	cfg := operon.DefaultConfig()
	cfg.Mode = operon.ModeOptical
	glow, err := operon.RunContextWith(context.Background(), design, cfg, nil)
	if err != nil {
		return Fig9Maps{}, err
	}
	cfg.Mode = operon.ModeLR
	op, err := operon.RunContextWith(context.Background(), design, cfg, nil)
	if err != nil {
		return Fig9Maps{}, err
	}
	gm, err := operon.Hotspots(glow, design.Die, rows, cols, cfg)
	if err != nil {
		return Fig9Maps{}, err
	}
	om, err := operon.Hotspots(op, design.Die, rows, cols, cfg)
	if err != nil {
		return Fig9Maps{}, err
	}
	return Fig9Maps{
		Case:          caseName,
		GlowOptical:   gm.Optical,
		GlowElec:      gm.Electrical,
		OperonOptical: om.Optical,
		OperonElec:    om.Electrical,
	}, nil
}

// FormatFig9 renders the four normalised heat maps side by side with the
// per-layer totals, mirroring the paper's hotspot comparison.
func FormatFig9(m Fig9Maps) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9: normalised power hotspots on %s\n", m.Case)
	pairs := []struct {
		title string
		grid  *power.Grid
	}{
		{"(a) GLOW optical layer", m.GlowOptical},
		{"(b) GLOW electrical layer", m.GlowElec},
		{"(c) OPERON optical layer", m.OperonOptical},
		{"(d) OPERON electrical layer", m.OperonElec},
	}
	for _, p := range pairs {
		fmt.Fprintf(&b, "%s  (total %.1f mW, peak cell %.2f mW)\n",
			p.title, p.grid.Total(), p.grid.Max())
		b.WriteString(indent(p.grid.Normalized().Render(), "  "))
	}
	fmt.Fprintf(&b, "electrical-layer total: GLOW %.1f mW vs OPERON %.1f mW (%.1f%% cooler)\n",
		m.GlowElec.Total(), m.OperonElec.Total(),
		100*(1-safeDiv(m.OperonElec.Total(), m.GlowElec.Total())))
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
