package operon

import (
	"bytes"
	"context"
	"encoding/xml"
	"strings"
	"testing"

	"operon/internal/benchgen"
	"operon/internal/geom"
)

func TestWriteSVG(t *testing.T) {
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "svg", DieCM: 4, Groups: 12, BitsPerGroup: 8, BitsJitter: 1,
		MinSinkClusters: 1, MaxSinkClusters: 2, LocalFraction: 0.25,
		LocalSpanCM: 0.2, GlobalSpanCM: 1.2, RegionSpreadCM: 0.02,
		LanePitchCM: 0.2, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	res, err := RunContextWith(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSVG(&buf, res, d.Die, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`<svg xmlns="http://www.w3.org/2000/svg"`,
		`id="optical"`, `id="electrical"`, `id="wdms"`,
		`id="modulators"`, `id="detectors"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v", err)
		}
	}
	// Conversion-site circles match the selection's conversion counts.
	mods, dets := 0, 0
	for i, j := range res.Selection.Choice {
		mods += res.Nets[i].Cands[j].NumMod
		dets += res.Nets[i].Cands[j].NumDet
	}
	if got := strings.Count(out, "<circle"); got != mods+dets {
		t.Errorf("SVG has %d circles, want %d (mods %d + dets %d)",
			got, mods+dets, mods, dets)
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := WriteSVG(&buf2, res, d.Die, cfg); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("SVG output is nondeterministic")
	}
}

func TestWriteSVGValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSVG(&buf, nil, geom.Rect{Hi: geom.Point{X: 1, Y: 1}}, DefaultConfig()); err == nil {
		t.Error("nil result accepted")
	}
	if err := WriteSVG(&buf, &Result{}, geom.Rect{Hi: geom.Point{X: 1, Y: 1}}, DefaultConfig()); err == nil {
		t.Error("empty result accepted")
	}
}

func TestWriteSVGZeroAreaDie(t *testing.T) {
	res := verifyDesign(t)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, res, geom.Rect{}, DefaultConfig()); err == nil {
		t.Error("zero-area die accepted")
	}
}
