package signal

import (
	"math"
	"math/rand"
	"testing"

	"operon/internal/geom"
)

// busGroup builds a bundle of bits whose drivers sit in one region and whose
// sinks sit in nClusters other regions.
func busGroup(name string, bits, nSinkClusters int, seed int64) Group {
	rng := rand.New(rand.NewSource(seed))
	driverBase := geom.Point{X: rng.Float64(), Y: rng.Float64()}
	sinkBases := make([]geom.Point, nSinkClusters)
	for i := range sinkBases {
		sinkBases[i] = geom.Point{X: 1 + rng.Float64()*2, Y: 1 + rng.Float64()*2}
	}
	g := Group{Name: name}
	for b := 0; b < bits; b++ {
		jit := func(p geom.Point) geom.Point {
			return geom.Point{X: p.X + rng.Float64()*0.01, Y: p.Y + rng.Float64()*0.01}
		}
		bit := Bit{Driver: jit(driverBase)}
		for _, sb := range sinkBases {
			bit.Sinks = append(bit.Sinks, jit(sb))
		}
		g.Bits = append(g.Bits, bit)
	}
	return g
}

func TestBitValidate(t *testing.T) {
	if err := (Bit{}).Validate(); err == nil {
		t.Error("bit with no sinks accepted")
	}
	b := Bit{Driver: geom.Point{}, Sinks: []geom.Point{{X: 1, Y: 1}}}
	if err := b.Validate(); err != nil {
		t.Errorf("valid bit rejected: %v", err)
	}
}

// TestValidateRejectsNonFinite checks that NaN and ±Inf coordinates on a
// driver, a sink or the die are rejected before they reach the clustering
// and Steiner stages.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := geom.Point{X: 1, Y: v}
		if err := (Bit{Driver: bad, Sinks: []geom.Point{{X: 1, Y: 1}}}).Validate(); err == nil {
			t.Errorf("driver %v accepted", bad)
		}
		if err := (Bit{Sinks: []geom.Point{{X: 1, Y: 1}, bad}}).Validate(); err == nil {
			t.Errorf("sink %v accepted", bad)
		}
		d := Design{Name: "d", Die: geom.Rect{Hi: bad}, Groups: []Group{busGroup("g", 2, 1, 1)}}
		if err := d.Validate(); err == nil {
			t.Errorf("die corner %v accepted", bad)
		}
		d.Die = geom.Rect{Hi: geom.Point{X: 4, Y: 4}}
		d.Groups[0].Bits[1].Sinks[0] = bad
		if err := d.Validate(); err == nil {
			t.Errorf("design with sink %v accepted", bad)
		}
	}
}

func TestBitCentroid(t *testing.T) {
	b := Bit{Driver: geom.Point{X: 0, Y: 0}, Sinks: []geom.Point{{X: 2, Y: 0}, {X: 1, Y: 3}}}
	if got := b.Centroid(); !got.Eq(geom.Point{X: 1, Y: 1}) {
		t.Errorf("Centroid = %v", got)
	}
	if got := b.PinCount(); got != 3 {
		t.Errorf("PinCount = %d", got)
	}
}

func TestDesignValidate(t *testing.T) {
	if err := (Design{Name: "empty"}).Validate(); err == nil {
		t.Error("design with no groups accepted")
	}
	d := Design{Name: "bad", Groups: []Group{{Name: "g"}}}
	if err := d.Validate(); err == nil {
		t.Error("design with empty group accepted")
	}
}

func TestNetCount(t *testing.T) {
	d := Design{Groups: []Group{busGroup("a", 5, 1, 1), busGroup("b", 7, 2, 2)}}
	if got := d.NetCount(); got != 12 {
		t.Errorf("NetCount = %d, want 12", got)
	}
}

func TestProcessCapacity(t *testing.T) {
	d := Design{
		Name:   "t",
		Die:    geom.Rect{Hi: geom.Point{X: 4, Y: 4}},
		Groups: []Group{busGroup("bus", 70, 2, 3)},
	}
	nets, err := Process(d, ProcessConfig{WDMCapacity: 32, PinMergeThresholdCM: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// 70 bits with capacity 32 → at least 3 hyper nets, none above capacity.
	if len(nets) < 3 {
		t.Fatalf("want >=3 hyper nets, got %d", len(nets))
	}
	seen := map[int]bool{}
	total := 0
	for _, n := range nets {
		if n.BitCount() > 32 {
			t.Errorf("hyper net exceeds capacity: %d bits", n.BitCount())
		}
		if n.BitCount() == 0 {
			t.Error("empty hyper net")
		}
		for _, b := range n.Bits {
			if seen[b] {
				t.Errorf("bit %d in two hyper nets", b)
			}
			seen[b] = true
			total++
		}
	}
	if total != 70 {
		t.Errorf("hyper nets cover %d of 70 bits", total)
	}
}

func TestProcessHyperPinsStructure(t *testing.T) {
	d := Design{
		Name:   "t",
		Groups: []Group{busGroup("bus", 16, 3, 5)},
	}
	nets, err := Process(d, ProcessConfig{WDMCapacity: 32, PinMergeThresholdCM: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 1 {
		t.Fatalf("want 1 hyper net, got %d", len(nets))
	}
	n := nets[0]
	// Drivers in one region, sinks in three: expect 4 hyper pins.
	if len(n.Pins) != 4 {
		t.Fatalf("want 4 hyper pins, got %d", len(n.Pins))
	}
	src := n.Pins[n.Source]
	if src.Drivers != 16 {
		t.Errorf("source hyper pin has %d drivers, want 16", src.Drivers)
	}
	for i, p := range n.Pins {
		if i == n.Source {
			continue
		}
		if p.Drivers != 0 {
			t.Errorf("sink hyper pin %d has %d drivers", i, p.Drivers)
		}
		if p.Bits != 16 {
			t.Errorf("sink hyper pin %d aggregates %d bits, want 16", i, p.Bits)
		}
	}
}

func TestProcessRejectsBadCapacity(t *testing.T) {
	d := Design{Groups: []Group{busGroup("bus", 4, 1, 1)}}
	if _, err := Process(d, ProcessConfig{WDMCapacity: 0}); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestProcessDegenerateLocalNet(t *testing.T) {
	// All pins within the merge threshold: the degenerate split must still
	// produce a routable 2-pin hyper net.
	g := Group{Name: "local"}
	for i := 0; i < 4; i++ {
		g.Bits = append(g.Bits, Bit{
			Driver: geom.Point{X: 0.001 * float64(i), Y: 0},
			Sinks:  []geom.Point{{X: 0.001 * float64(i), Y: 0.001}},
		})
	}
	d := Design{Groups: []Group{g}}
	nets, err := Process(d, ProcessConfig{WDMCapacity: 32, PinMergeThresholdCM: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nets {
		if len(n.Pins) < 2 {
			t.Fatalf("degenerate hyper net has %d pins", len(n.Pins))
		}
		if n.Pins[n.Source].Drivers == 0 {
			t.Error("source hyper pin has no drivers")
		}
	}
}

func TestTerminalsSourceFirst(t *testing.T) {
	n := HyperNet{
		Pins: []HyperPin{
			{Centre: geom.Point{X: 1, Y: 1}},
			{Centre: geom.Point{X: 2, Y: 2}, Drivers: 3},
			{Centre: geom.Point{X: 3, Y: 3}},
		},
		Source: 1,
	}
	ts := n.Terminals()
	if len(ts) != 3 || !ts[0].Eq(geom.Point{X: 2, Y: 2}) {
		t.Fatalf("Terminals = %v", ts)
	}
	sp := n.SinkPins()
	if len(sp) != 2 || sp[0] != 0 || sp[1] != 2 {
		t.Fatalf("SinkPins = %v", sp)
	}
}

func TestSummarize(t *testing.T) {
	nets := []HyperNet{
		{Pins: make([]HyperPin, 3)},
		{Pins: make([]HyperPin, 2)},
	}
	s := Summarize(nets)
	if s.HyperNets != 2 || s.HyperPins != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
}

func TestProcessDeterministic(t *testing.T) {
	d := Design{Groups: []Group{busGroup("bus", 40, 2, 7), busGroup("b2", 33, 3, 8)}}
	cfg := ProcessConfig{WDMCapacity: 16, PinMergeThresholdCM: 0.05, Seed: 42}
	a, err := Process(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Process(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d hyper nets", len(a), len(b))
	}
	for i := range a {
		if a[i].BitCount() != b[i].BitCount() || len(a[i].Pins) != len(b[i].Pins) {
			t.Fatalf("hyper net %d differs between runs", i)
		}
	}
}
