package flood

import (
	"fmt"
	"math"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// TestBuildTunesDegenerate builds with no Cols, which the cost model fills
// with the sort dimension, on points all equal: the data extent is zero in
// every dimension, so every sample square has zero sides.
func TestBuildTunesDegenerate(t *testing.T) {
	pvs := make([]core.PV, 500)
	for i := range pvs {
		pvs[i] = core.PV{Point: core.Point{5, 7}, Value: core.Value(i)}
	}
	ix, err := Build(pvs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok := ix.Lookup(core.Point{5, 7}); !ok || v < 0 || int(v) >= len(pvs) {
		t.Fatalf("Lookup = %d, %v", v, ok)
	}
	if _, ok := ix.Lookup(core.Point{5, 8}); ok {
		t.Fatal("Lookup of an absent point")
	}
	for _, q := range []core.Rect{{Min: core.Point{5, 7}, Max: core.Point{5, 7}}, {Min: core.Point{0, 0}, Max: core.Point{4, 9}}} {
		if got, _ := ix.Search(q, func(core.PV) bool { return true }); got != bruteCount(pvs, q) {
			t.Fatalf("Search(%v) = %d, want %d", q, got, bruteCount(pvs, q))
		}
	}
}

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

// TestTunedLayoutNearBest holds the layout BuildSpatial's path picks (the
// data-drawn sample, sort dimension tuned) to within 1.25× of the best
// layout of a fixed sweep, 16 to 4 096 columns on either sort dimension, in
// counted work on held-out rectangles at the sample's three selectivities,
// drawn with seeds no sample uses. It counts, it does not time.
func TestTunedLayoutNearBest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 19 layouts of 200 k points per distribution")
	}
	for _, kind := range []dataset.SpatialKind{dataset.SOSMLike, dataset.SUniform, dataset.SDiagonal} {
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
		cols, sortDim := tuned.Layout()
		best, bestName := math.Inf(1), ""
		for s := 0; s < 2; s++ {
			for c := 16; c <= 4096; c *= 2 {
				cols := []int{c, c}
				cols[s] = 1
				ix, err := Build(pvs, Config{SortDim: s, Cols: cols})
				if err != nil {
					t.Fatal(err)
				}
				if w := total(ix); w < best {
					best, bestName = w, fmt.Sprintf("%v sort %d", cols, s)
				}
			}
		}
		t.Logf("%s: tuned %v sort %d: %.0f per query; best of the sweep %s: %.0f", kind, cols, sortDim, got/float64(len(queries)), bestName, best/float64(len(queries)))
		if got > 1.25*best {
			t.Errorf("%s: tuned layout %v sort %d does %.0f work per query, best of the sweep (%s) %.0f", kind, cols, sortDim, got/float64(len(queries)), bestName, best/float64(len(queries)))
		}
	}
}
