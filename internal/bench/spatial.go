package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// The least flood, LISA and the STR R-tree may lead the k-d tree by on
// rectangle searches. Twelve runs on the 2-vCPU sandbox read 2.39-2.75 for
// flood and 2.31-2.84 for the R-tree; each floor is under 0.8 of the lowest.
// What each replaced is out of reach of it: the R-tree of 88-byte entries
// behind three pointers read 0.49-0.52 on this schedule, and flood on a []PV
// of slice headers into the caller's points 0.54 of the flat store's rate
// (2.15-2.30 against 3.96-4.48 when both were held against that R-tree).
// Since flood and LISA build the layout their cost model picks (flood read
// 3.67-3.88 at the fixed n/64-points-a-column rule, LISA was not gated at
// its fixed 16 × 16), eight runs read 4.13-5.44 for flood and 2.86-3.43 for
// LISA, and their floors are 3.2 and 2.2, under 0.8 of the lowest.
const (
	spatialFloodFloor = 3.2
	spatialLISAFloor  = 2.2
	spatialRTreeFloor = 1.8
)

// spatialKinds are the sides of the spatial gate; the control comes last.
var spatialKinds = []string{"flood", "lisa", "rtree", "kdtree"}

// gateSpatial is the rectangle-search gate of the flat layouts: flood and
// LISA, the two grid kinds built on the flat point store in the layout
// their cost model picks, and the bulk-loaded R-tree, whose leaves are
// point stores and whose inner nodes are flat boxes, each against the k-d
// tree, which keeps pointer nodes into the caller's points and is the
// control no layout can move. All four are built over the same cfg.N
// clustered 2-D points and answer the same cfg.Q rectangles, a third each at
// three selectivities two decades apart like the repo benchmark's; abRates
// runs them slice by slice. Every slice's result count is checked across the
// four sides. A refine loop or
// an MBR test that goes back to chasing a pointer per candidate falls
// under its floor.
func gateSpatial(cfg Config) ([]*Table, []floor, error) {
	pts := mustPoints(dataset.SOSMLike, cfg.N, 2, cfg.Seed)
	pvs := dataset.PV(pts)
	var queries []core.Rect
	for i, sel := range []float64{1e-6, 1e-5, 1e-4} {
		queries = append(queries, dataset.RectQueries(pts, cfg.Q/3, sel, cfg.Seed+int64(110+i))...)
	}
	per := (len(queries) + abSlices - 1) / abSlices

	results := make([]int, len(spatialKinds))
	rectSide := func(k int, ix lix.SpatialIndex) side {
		next := 0
		return func() (float64, error) {
			start := time.Now()
			for i := 0; i < per; i++ {
				n, _ := ix.Search(queries[next], func(core.PV) bool { return true })
				results[k] += n
				next = (next + 1) % len(queries)
			}
			return float64(per) / float64(time.Since(start).Nanoseconds()) * 1000, nil
		}
	}
	rates, err := abRates(abRounds, abSlices, func() ([]side, func(), error) {
		sides := make([]side, len(spatialKinds))
		for k, kind := range spatialKinds {
			ix, err := lix.BuildSpatial(kind, pvs)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: build %s: %w", kind, err)
			}
			sides[k] = rectSide(k, ix)
		}
		runtime.GC() // collect the previous round's indexes now, not during a slice
		return sides, func() {}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	ctl := len(spatialKinds) - 1
	for k := range results {
		if results[k] != results[ctl] || results[ctl] == 0 {
			return nil, nil, fmt.Errorf("bench: %v returned %v points on the same rectangles", spatialKinds, results)
		}
	}

	t := &Table{
		ID: "SPATIAL",
		Title: fmt.Sprintf("Rectangle search, n=%d clustered 2-D points, %d rectangles (mean result %.1f points), median of %d rounds",
			cfg.N, len(queries), float64(results[0])/float64(abRounds*abSlices*per), abRounds),
		Columns: []string{"kind", "Mqueries/s", "kdtree Mqueries/s", "vs kdtree"},
	}
	var floors []floor
	for k, min := range []float64{spatialFloodFloor, spatialLISAFloor, spatialRTreeFloor} {
		r := medianRound(rates, k, ctl)
		t.AddRow(spatialKinds[k], r[k], r[ctl], fmt.Sprintf("%.3f", r[k]/r[ctl]))
		floors = append(floors, floor{name: "spatial/rect/" + spatialKinds[k], got: r[k], ref: r[ctl], min: min})
	}
	return []*Table{t}, floors, nil
}
