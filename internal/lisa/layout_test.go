package lisa

import (
	"math"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// work is a query's counted work in the cost model's units: cells touched,
// weighted as the model weighs them, plus the candidates handed to ScanRect.
func (ix *Index) work(q core.Rect) float64 {
	cells := 1
	for d := 0; d < ix.dim; d++ {
		cells *= ix.grid.Column(d, q.Max[d]) - ix.grid.Column(d, q.Min[d]) + 1
	}
	_, scanned := ix.Search(q, func(core.PV) bool { return true })
	return core.GridCellCost*float64(cells) + core.GridPointCost*float64(scanned)
}

// TestTunedGridNearBest holds the grid Build picks with GridCols 0 to within
// 1.25× of the best of a fixed sweep, 8 to 256 columns, in counted work on
// held-out rectangles at the sample's three selectivities, drawn with seeds
// no sample uses. It counts, it does not time.
func TestTunedGridNearBest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 7 grids of 200 k points per distribution")
	}
	for _, kind := range []dataset.SpatialKind{dataset.SOSMLike, dataset.SUniform} {
		pts, err := dataset.Points(kind, 200_000, 2, 41)
		if err != nil {
			t.Fatal(err)
		}
		pvs := dataset.PV(pts)
		var queries []core.Rect
		for i, sel := range []float64{1e-5, 1e-4, 1e-3} {
			queries = append(queries, dataset.RectQueries(pts, 200, sel, int64(9001+i))...)
		}
		total := func(ix *Index) float64 {
			var w float64
			for _, q := range queries {
				w += ix.work(q)
			}
			return w
		}
		tuned, err := Build(pvs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got := total(tuned)
		best, bestG := math.Inf(1), 0
		for g := 8; g <= 256; g *= 2 {
			ix, err := Build(pvs, Config{GridCols: g})
			if err != nil {
				t.Fatal(err)
			}
			if w := total(ix); w < best {
				best, bestG = w, g
			}
		}
		t.Logf("%s: tuned G=%d: %.0f per query; best of the sweep G=%d: %.0f", kind, tuned.cfg.GridCols, got/float64(len(queries)), bestG, best/float64(len(queries)))
		if got > 1.25*best {
			t.Errorf("%s: tuned G=%d does %.0f work per query, best of the sweep (G=%d) %.0f", kind, tuned.cfg.GridCols, got/float64(len(queries)), bestG, best/float64(len(queries)))
		}
	}
}
