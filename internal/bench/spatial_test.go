package bench

import "testing"

// TestRunSpatialSmoke runs the spatial gate at a tiny scale and checks the
// contract CI depends on: one row per gated kind, all six kinds agreeing
// on the result count (gateSpatial errors otherwise), and flood's, LISA's,
// the R-tree's, the ZM-index's and the ML-Index's rates each carrying the
// documented floor against the k-d tree's, and flood's, LISA's, the
// ZM-index's and the ML-Index's candidates per result and bytes per point
// their documented ceilings.
// The ratios themselves are not asserted — CI gates them at real scale.
func TestRunSpatialSmoke(t *testing.T) {
	tables, floors, err := gateSpatial(Config{N: 5_000, Q: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 13 {
		t.Fatalf("tables = %+v, want one table with a flood, a lisa, an rtree, a zm and an mlindex row, then flood's, lisa's, zm's and mlindex's candidates per result and bytes per point", tables)
	}
	wantFloors(t, floors, map[string]float64{"spatial/rect/flood": spatialFloodFloor, "spatial/rect/lisa": spatialLISAFloor, "spatial/rect/rtree": spatialRTreeFloor, "spatial/rect/zm": spatialZMFloor, "spatial/rect/mlindex": spatialMLFloor,
		"spatial/results-per-candidate/flood": 1 / spatialFloodCandCeiling, "spatial/results-per-candidate/lisa": 1 / spatialLISACandCeiling, "spatial/results-per-candidate/zm": 1 / spatialZMCandCeiling, "spatial/results-per-candidate/mlindex": 1 / spatialMLCandCeiling,
		"spatial/points-per-byte/flood": 1 / spatialFloodBytesCeiling, "spatial/points-per-byte/lisa": 1 / spatialLISABytesCeiling, "spatial/points-per-byte/zm": 1 / spatialZMBytesCeiling, "spatial/points-per-byte/mlindex": 1 / spatialMLBytesCeiling})
}
