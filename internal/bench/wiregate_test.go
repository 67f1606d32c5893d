package bench

import "testing"

// TestRunWireGateSmoke runs the wire gate at a tiny scale and checks the
// contract CI depends on: every path answers every request (gateWire
// errors on a missed GET of a present key or an ERR), one row each, and the
// floors are the documented ones. Of the ratios only the counts are
// asserted — a durable server makes at most one log write and one store
// call per group at any scale — CI gates the rates at real scale.
func TestRunWireGateSmoke(t *testing.T) {
	tables, floors, err := gateWire(Config{N: 5_000, Q: 512, Shards: 2, Pipeline: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 6 {
		t.Fatalf("tables = %+v, want one table of six rows", tables)
	}
	wantFloors(t, floors, map[string]float64{
		"wire/get/pipeline":                 wireFloor,
		"wire/durable/mixed":                wireDurableFloor,
		"wire/durable/groups-per-log-write": 1,
		"wire/durable/batches-per-group":    1,
	})
	for _, f := range floors[2:] {
		if err := f.check(); err != nil {
			t.Error(err)
		}
	}
}
