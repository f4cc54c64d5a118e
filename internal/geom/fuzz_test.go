package geom

import "testing"

// bruteCrossings counts proper crossings over every segment pair, without
// the bounding-box pruning CountCrossings applies.
func bruteCrossings(a, b []Segment) int {
	n := 0
	for _, s := range a {
		for _, t := range b {
			if ProperCrossing(s, t) {
				n++
			}
		}
	}
	return n
}

// gridCrossings is an exact integer oracle for segments whose endpoints lie
// on the integer grid: two segments cross properly iff each one's endpoints
// lie strictly on opposite sides of the other's line.
func gridCrossings(a, b [][4]int) int {
	orient := func(ax, ay, bx, by, cx, cy int) int {
		d := (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
		switch {
		case d > 0:
			return 1
		case d < 0:
			return -1
		}
		return 0
	}
	n := 0
	for _, s := range a {
		for _, t := range b {
			d1 := orient(t[0], t[1], t[2], t[3], s[0], s[1])
			d2 := orient(t[0], t[1], t[2], t[3], s[2], s[3])
			d3 := orient(s[0], s[1], s[2], s[3], t[0], t[1])
			d4 := orient(s[0], s[1], s[2], s[3], t[2], t[3])
			if d1*d2 < 0 && d3*d4 < 0 {
				n++
			}
		}
	}
	return n
}

// FuzzCountCrossings checks the pruned crossing kernel against brute force.
// data[0] splits the segments into the two sets; every following 4 bytes are
// one segment on a quarter-centimetre grid (exact in float64, so the integer
// oracle applies). A non-zero jitter nudges endpoints by multiples of Eps/4,
// probing the tolerance at the pruning boundary; the integer oracle is then
// skipped and only the unpruned float count must agree.
func FuzzCountCrossings(f *testing.F) {
	f.Add([]byte{3, 0, 4, 40, 4, 0, 8, 40, 8, 4, 0, 4, 40, 8, 0, 8, 40}, uint8(0))
	f.Add([]byte{1, 0, 0, 40, 40, 0, 40, 40, 0, 20, 0, 20, 40}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, jitter uint8) {
		if len(data) == 0 {
			return
		}
		var grid [][4]int
		for i := 1; i+3 < len(data) && len(grid) < 64; i += 4 {
			grid = append(grid, [4]int{int(data[i] % 64), int(data[i+1] % 64), int(data[i+2] % 64), int(data[i+3] % 64)})
		}
		split := 0
		if len(grid) > 0 {
			split = int(data[0]) % (len(grid) + 1)
		}
		segs := make([]Segment, len(grid))
		for k, g := range grid {
			nudge := 0.0
			if jitter != 0 && k%2 == 1 {
				nudge = float64(int(jitter)-128) * Eps / 4
			}
			segs[k] = Segment{
				A: Point{X: float64(g[0])/4 + nudge, Y: float64(g[1]) / 4},
				B: Point{X: float64(g[2]) / 4, Y: float64(g[3])/4 - nudge},
			}
		}
		a, b := segs[:split], segs[split:]
		got := CountCrossings(a, b)
		if want := bruteCrossings(a, b); got != want {
			t.Fatalf("CountCrossings = %d, brute force %d", got, want)
		}
		if back := CountCrossings(b, a); back != got {
			t.Fatalf("CountCrossings not symmetric: %d vs %d", got, back)
		}
		if jitter == 0 {
			if want := gridCrossings(grid[:split], grid[split:]); got != want {
				t.Fatalf("CountCrossings = %d, exact integer oracle %d", got, want)
			}
		}
	})
}
