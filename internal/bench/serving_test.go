package bench

import (
	"runtime"
	"testing"
)

// TestRunServingSmoke runs the serving gate at toy scale: every system
// must produce a positive throughput for both workloads, the sharded
// 50/50 cell carries its floor against btree+mutex, and the
// two-callers-against-one pair carries its own, or says why it was not
// measured.
func TestRunServingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serving smoke benchmark skipped in -short mode")
	}
	tables, floors, err := gateServing(Config{N: 2000, Q: 500, Workers: 2, Shards: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || len(tables[0].Rows) != 3 {
		t.Fatalf("tables = %+v, want a table of 3 systems and the callers table", tables)
	}
	for _, row := range tables[0].Rows {
		if len(row) != 3 || row[1] == "0" || row[2] == "0" {
			t.Fatalf("row %v: want a positive Mops for both workloads", row)
		}
	}
	want := map[string]float64{"serving/50/50/sharded-rw(4)": 0.6}
	if runtime.NumCPU() >= 2 {
		want["serving/callers/2-vs-1"] = callerScalingFloor
	} else if rows := tables[1].Rows; len(rows) != 1 || rows[0][0] != "skipped" {
		t.Fatalf("callers table %v: want the skip and its reason on one CPU", rows)
	}
	wantFloors(t, floors, want)
}

// TestRunObsOverheadSmoke runs the observed-vs-bare pair at toy scale:
// both sides must produce throughput, the observed side must carry the
// 0.85 floor against the bare one, and the run's own check that the
// wrapper counted every operation must pass. The ratio itself is not
// asserted — short passes are noisy; CI gates it at real scale.
func TestRunObsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("obs overhead smoke skipped in -short mode")
	}
	tables, floors, err := gateObs(Config{N: 2000, Q: 500, Workers: 2, Shards: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("tables = %+v, want one table with a bare and an observed row", tables)
	}
	wantFloors(t, floors, map[string]float64{"obs/95/5/observed": 0.85})
}
