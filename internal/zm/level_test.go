package zm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// work is a query's counted work at a level in the cost model's units: each
// interval looked up and each BigMin jump weighted as a grid cell, plus the
// candidates handed to ScanRect.
func (z *Index) work(q core.Rect, level uint) float64 {
	_, cands, steps := z.search(q, level, func(core.PV) bool { return true })
	return core.GridCellCost*float64(steps) + core.GridPointCost*float64(cands)
}

// TestTunedLevelNearBest holds the level Build picks to within 1.25× of the
// best of a fixed sweep over every level, in counted work on held-out
// rectangles at the sample's three selectivities, drawn with seeds no sample
// uses. It counts, it does not time.
func TestTunedLevelNearBest(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 20 levels over 200 k points per distribution")
	}
	for _, kind := range []dataset.SpatialKind{dataset.SOSMLike, dataset.SUniform, dataset.SDiagonal} {
		pts, err := dataset.Points(kind, 200_000, 2, 43)
		if err != nil {
			t.Fatal(err)
		}
		var queries []core.Rect
		for i, sel := range []float64{1e-5, 1e-4, 1e-3} {
			queries = append(queries, dataset.RectQueries(pts, 200, sel, int64(9101+i))...)
		}
		ix, err := Build(dataset.PV(pts), Config{})
		if err != nil {
			t.Fatal(err)
		}
		total := func(level uint) float64 {
			var w float64
			for _, q := range queries {
				w += ix.work(q, level)
			}
			return w / float64(len(queries))
		}
		got := total(ix.level)
		best, bestL := math.Inf(1), uint(0)
		for level := uint(1); level <= ix.cfg.Bits; level++ {
			if w := total(level); w < best {
				best, bestL = w, level
			}
		}
		t.Logf("%s: tuned level %d: %.0f per query; best of the sweep, level %d: %.0f (level %d: %.0f)", kind, ix.level, got, bestL, best, ix.cfg.Bits, total(ix.cfg.Bits))
		if got > 1.25*best {
			t.Errorf("%s: tuned level %d does %.0f work per query, best of the sweep (level %d) %.0f", kind, ix.level, got, bestL, best)
		}
	}
}

// TestLevelsAnswerAlike checks the exactness the coarse levels rest on:
// every level from 1 to Bits returns the same points, in 2-D on both curves
// and in 3-D and 5-D on the Z-curve, and an explicit Bits caps the level.
// On the Z-curve the candidates are exactly the points whose cell at the
// level lies in the rectangle's box at the level.
func TestLevelsAnswerAlike(t *testing.T) {
	for _, c := range []struct {
		dim   int
		curve CurveKind
		bits  uint
	}{{2, CurveZ, 0}, {2, CurveHilbert, 0}, {3, CurveZ, 0}, {5, CurveZ, 0}, {2, CurveZ, 6}} {
		pts, _ := dataset.Points(dataset.SOSMLike, 3000, c.dim, 1010)
		pvs := dataset.PV(pts)
		ix, err := Build(pvs, Config{Curve: c.curve, Bits: c.bits})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if c.bits != 0 && ix.Level() > c.bits {
			t.Fatalf("Bits %d: level %d", c.bits, ix.Level())
		}
		queries := dataset.RectQueries(pts, 20, 1e-3, 1011)
		queries = append(queries, dataset.RectQueries(pts, 20, 1e-1, 1012)...)
		for qi, q := range queries {
			want := bruteCount(pvs, q)
			for level := uint(1); level <= ix.cfg.Bits; level++ {
				at, err := ix.AtLevel(level)
				if err != nil {
					t.Fatal(err)
				}
				got, cands := at.Search(q, func(core.PV) bool { return true })
				if got != want || cands < got {
					t.Fatalf("dim=%d %s level %d q%d: %d results from %d candidates, want %d", c.dim, c.curve, level, qi, got, cands, want)
				}
				if c.curve == CurveZ {
					if inCells := ix.inCells(pvs, q, level); cands != inCells {
						t.Fatalf("dim=%d level %d q%d: %d candidates, %d points in the box's cells", c.dim, level, qi, cands, inCells)
					}
				}
			}
		}
		if _, err := ix.AtLevel(0); err == nil {
			t.Fatal("level 0 accepted")
		}
		if _, err := ix.AtLevel(ix.cfg.Bits + 1); err == nil {
			t.Fatal("level above Bits accepted")
		}
	}
}

// inCells counts the points whose cell at level lies in q's box at level,
// from the coordinates' cells.
func (z *Index) inCells(pvs []core.PV, q core.Rect, level uint) int {
	k, n := z.cfg.Bits-level, 0
	for _, pv := range pvs {
		in := true
		for d := 0; d < z.Dim; d++ {
			c := z.quant.Cell(d, pv.Point[d]) >> k
			in = in && c >= z.quant.Cell(d, q.Min[d])>>k && c <= z.quant.Cell(d, q.Max[d])>>k
		}
		if in {
			n++
		}
	}
	return n
}

// TestCoarseCodesArePrefixes is the identity Search's levels rest on: a
// point's code at Bits, shifted right by dim·k, is its code at Bits−k, on
// both curves, because Quantizer cells at the two levels differ by a shift.
func TestCoarseCodesArePrefixes(t *testing.T) {
	r := rand.New(rand.NewSource(1013))
	for _, c := range []struct {
		dim   int
		curve CurveKind
	}{{2, CurveZ}, {2, CurveHilbert}, {3, CurveZ}, {5, CurveZ}} {
		pts, _ := dataset.Points(dataset.SUniform, 500, c.dim, 1014)
		pvs := dataset.PV(pts)
		fine, err := Build(pvs, Config{Curve: c.curve})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint(1); k < fine.cfg.Bits; k++ {
			coarse, err := Build(pvs, Config{Curve: c.curve, Bits: fine.cfg.Bits - k})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				p := pts[r.Intn(len(pts))]
				if got, want := fine.code(p)>>(k*uint(c.dim)), coarse.code(p); got != want {
					t.Fatalf("dim=%d %s k=%d: %v: fine code >> %d = %d, coarse code %d", c.dim, c.curve, k, p, k*uint(c.dim), got, want)
				}
			}
		}
	}
}
