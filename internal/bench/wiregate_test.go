package bench

import "testing"

// TestRunWireGateSmoke runs the wire gate at a tiny scale and checks the
// contract CI depends on: both paths answer every key (gateWire errors on
// a miss or an ERR), one row each, and the wire row carries the documented
// floor against the in-process one. The ratio itself is not asserted — CI
// gates it at real scale.
func TestRunWireGateSmoke(t *testing.T) {
	tables, floors, err := gateWire(Config{N: 5_000, Q: 512, Shards: 2, Pipeline: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("tables = %+v, want one table with an in-process and a wire row", tables)
	}
	wantFloors(t, floors, map[string]float64{"wire/get/pipeline": wireFloor})
}
