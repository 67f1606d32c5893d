package bench

import "testing"

// TestRunPagedSmoke runs the paged gate at a tiny scale and checks the
// contract CI depends on: one row per kind, cold runs actually evicting
// (gatePaged errors otherwise), and every warm rate carrying the >= 3x
// floor against its own kind's cold rate.
func TestRunPagedSmoke(t *testing.T) {
	tables, floors, err := gatePaged(Config{N: 20_000, Q: 4_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("want 1 table with 2 rows, got %d tables", len(tables))
	}
	wantFloors(t, floors, map[string]float64{
		"paged/paged-btree/lookup/warm": 3,
		"paged/paged-pgm/lookup/warm":   3,
	})
}
