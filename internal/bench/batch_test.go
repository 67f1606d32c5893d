package bench

import "testing"

// TestRunBatchSmoke runs the batch gate at toy scale: both systems report
// every batch size, and each batched cell carries its documented floor
// against the looped sibling — 1.0 for lookups of 16 and 1.25 from 256, 0.8
// for in-memory inserts, 2 for durable inserts.
func TestRunBatchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("batch smoke pays real fsyncs; skipped in -short mode")
	}
	tables, floors, err := gateBatch(Config{N: 2000, Q: 200, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want one per system", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 2*len(batchSizes) {
			t.Errorf("%s: %d rows, want an insert and a lookup row per batch size", tb.Title, len(tb.Rows))
		}
	}
	wantFloors(t, floors, map[string]float64{
		"batch/sharded(2)/insert/b16":      0.8,
		"batch/sharded(2)/insert/b256":     0.8,
		"batch/sharded(2)/insert/b4096":    0.8,
		"batch/sharded(2)/lookup/b16":      1.0,
		"batch/sharded(2)/lookup/b256":     1.25,
		"batch/sharded(2)/lookup/b4096":    1.25,
		"batch/durable-fsync/insert/b16":   2,
		"batch/durable-fsync/insert/b256":  2,
		"batch/durable-fsync/insert/b4096": 2,
		"batch/durable-fsync/lookup/b16":   1.0,
		"batch/durable-fsync/lookup/b256":  1.25,
		"batch/durable-fsync/lookup/b4096": 1.25,
	})
}
