package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// spatialFloor is the least flood may lead the STR R-tree by on rectangle
// searches. Flood on a []PV of slice headers into the caller's points, as
// before the flat point store, read 2.15-2.30 here on the 2-vCPU sandbox
// and the store reads 3.96-4.48 (twenty runs); 3.1 is out of reach of the
// first and under 0.8 of the lowest run of the second.
const spatialFloor = 3.1

// gateSpatial is the rectangle-search pair: flood, the fastest of the kinds
// built on the flat point store, against the bulk-loaded R-tree, which keeps
// its own node layout and is the control the store must not move. Both are
// built over the same cfg.N clustered 2-D points and answer the same cfg.Q
// rectangles, a third each at three selectivities two decades apart like the
// repo benchmark's; abMedian compares them slice by slice. Every slice's
// result count is checked between the two sides. The floor is what the
// store's win on spatial-query leaves behind: a refine loop that goes back
// to chasing a pointer per candidate falls under it.
func gateSpatial(cfg Config) ([]*Table, []floor, error) {
	pts := mustPoints(dataset.SOSMLike, cfg.N, 2, cfg.Seed)
	pvs := dataset.PV(pts)
	var queries []core.Rect
	for i, sel := range []float64{1e-6, 1e-5, 1e-4} {
		queries = append(queries, dataset.RectQueries(pts, cfg.Q/3, sel, cfg.Seed+int64(110+i))...)
	}
	per := (len(queries) + abSlices - 1) / abSlices

	var results [2]int
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
	floodMed, rtreeMed, err := abMedian(abRounds, abSlices, func() (side, side, func(), error) {
		fl, err := lix.BuildSpatial("flood", pvs)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("bench: build flood: %w", err)
		}
		rt, err := lix.BuildSpatial("rtree", pvs)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("bench: build rtree: %w", err)
		}
		runtime.GC() // collect the previous round's indexes now, not during a slice
		return rectSide(0, fl), rectSide(1, rt), func() {}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if results[0] != results[1] || results[0] == 0 {
		return nil, nil, fmt.Errorf("bench: flood returned %d points, rtree %d, on the same rectangles", results[0], results[1])
	}

	t := &Table{
		ID: "SPATIAL",
		Title: fmt.Sprintf("Rectangle search, n=%d clustered 2-D points, %d rectangles (mean result %.1f points), median of %d rounds",
			cfg.N, len(queries), float64(results[0])/float64(abRounds*abSlices*per), abRounds),
		Columns: []string{"kind", "Mqueries/s", "vs rtree"},
	}
	t.AddRow("rtree (STR)", rtreeMed, "1.000")
	t.AddRow("flood", floodMed, fmt.Sprintf("%.3f", floodMed/rtreeMed))
	return []*Table{t}, []floor{{name: "spatial/rect/flood", got: floodMed, ref: rtreeMed, min: spatialFloor}}, nil
}
