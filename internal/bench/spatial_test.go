package bench

import "testing"

// TestRunSpatialSmoke runs the spatial gate at a tiny scale and checks the
// contract CI depends on: one row per gated kind, all four kinds agreeing
// on the result count (gateSpatial errors otherwise), and flood's, LISA's and
// the R-tree's rates each carrying the documented floor against the k-d
// tree's.
// The ratios themselves are not asserted — CI gates them at real scale.
func TestRunSpatialSmoke(t *testing.T) {
	tables, floors, err := gateSpatial(Config{N: 5_000, Q: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("tables = %+v, want one table with a flood, a lisa and an rtree row", tables)
	}
	wantFloors(t, floors, map[string]float64{"spatial/rect/flood": spatialFloodFloor, "spatial/rect/lisa": spatialLISAFloor, "spatial/rect/rtree": spatialRTreeFloor})
}
