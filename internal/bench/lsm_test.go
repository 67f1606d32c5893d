package bench

import "testing"

// TestRunLSMSmoke runs the checkpoint gate at a tiny scale and checks the
// contract CI depends on: one row per side, the absent-key filter probe
// passing (gateLSM errors if filters skip under 90%), and the delta
// flush's checkpoint rate carrying its floor against the full rewrite's.
func TestRunLSMSmoke(t *testing.T) {
	tables, floors, err := gateLSM(Config{N: 20_000, Q: 6_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("want 1 table with 2 rows, got %+v", tables)
	}
	wantFloors(t, floors, map[string]float64{"lsm/checkpoint/lsm": 2})
}
