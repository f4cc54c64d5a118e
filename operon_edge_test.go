package operon

import (
	"context"
	"errors"
	"math"
	"testing"

	"operon/internal/geom"
	"operon/internal/parallel"
	"operon/internal/signal"
)

func TestWorkerPoolParallelMatchesSerial(t *testing.T) {
	// The shared worker pool must produce the same results as serial
	// execution (results are written by index, never by completion order).
	n := 100
	serial := make([]int, n)
	concurrent := make([]int, n)
	if err := parallel.ForEach(n, 1, func(i int) error {
		serial[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := parallel.ForEach(n, 8, func(i int) error {
		concurrent[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != concurrent[i] {
			t.Fatalf("index %d: %d vs %d", i, serial[i], concurrent[i])
		}
	}
}

func TestWorkerPoolPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := parallel.ForEach(50, workers, func(i int) error {
			if i == 37 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: error %v, want sentinel", workers, err)
		}
	}
}

func TestWorkerPoolZeroItems(t *testing.T) {
	called := false
	if err := parallel.ForEach(0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("callback invoked for zero items")
	}
}

func TestRunWithExplicitWorkers(t *testing.T) {
	d := smallDesign(t)
	cfg := DefaultConfig()
	base, err := RunContextWith(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunContextWith(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.PowerMW-par.PowerMW) > 1e-9 {
		t.Fatalf("parallel candidate generation changed the result: %v vs %v",
			base.PowerMW, par.PowerMW)
	}
}

func TestRunSingleBitDesign(t *testing.T) {
	// Degenerate: one group, one bit, one sink.
	d := signal.Design{
		Name: "onebit",
		Die:  geom.Rect{Hi: geom.Point{X: 4, Y: 4}},
		Groups: []signal.Group{{
			Name: "g",
			Bits: []signal.Bit{{
				Driver: geom.Point{X: 0.5, Y: 0.5},
				Sinks:  []geom.Point{{X: 3, Y: 3}},
			}},
		}},
	}
	res, err := RunContextWith(context.Background(), d, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nets) != 1 {
		t.Fatalf("nets = %d", len(res.Nets))
	}
	if issues := Verify(res, DefaultConfig()); len(issues) != 0 {
		t.Fatalf("DRC issues on one-bit design: %v", issues)
	}
}

func TestRunAllLocalDesign(t *testing.T) {
	// Every bundle below the crossover: the whole design should route
	// electrically and skip the WDM stage gracefully.
	d := signal.Design{
		Name: "alllocal",
		Die:  geom.Rect{Hi: geom.Point{X: 4, Y: 4}},
	}
	for g := 0; g < 5; g++ {
		grp := signal.Group{Name: "g"}
		base := geom.Point{X: 0.5 + float64(g)*0.7, Y: 1}
		for b := 0; b < 4; b++ {
			off := float64(b) * 0.002
			grp.Bits = append(grp.Bits, signal.Bit{
				Driver: geom.Point{X: base.X + off, Y: base.Y},
				Sinks:  []geom.Point{{X: base.X + off + 0.05, Y: base.Y}},
			})
		}
		d.Groups = append(d.Groups, grp)
	}
	res, err := RunContextWith(context.Background(), d, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Nets {
		if res.Classify(i) != RouteElectrical {
			t.Errorf("local net %d routed %v", i, res.Classify(i))
		}
	}
	if len(res.Connections) != 0 || res.WDMStats.InitialWDMs != 0 {
		t.Error("all-electrical design produced WDM content")
	}
	if issues := Verify(res, DefaultConfig()); len(issues) != 0 {
		t.Fatalf("DRC issues: %v", issues)
	}
}

func TestRunTinyLossBudget(t *testing.T) {
	// An unroutable optical layer (budget ~0) must degrade to electrical
	// everywhere, never error.
	d := smallDesign(t)
	cfg := DefaultConfig()
	cfg.Lib.MaxLossDB = 0.05
	res, err := RunContextWith(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Nets {
		if res.Classify(i) != RouteElectrical {
			t.Fatalf("net %d optical under a 0.05 dB budget", i)
		}
	}
	if issues := Verify(res, cfg); len(issues) != 0 {
		t.Fatalf("DRC issues: %v", issues)
	}
}
