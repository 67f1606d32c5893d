package bench

import (
	"testing"
	"time"
)

// TestRunTraceOverheadSmoke runs the trace gate at a tiny scale: every
// variant must produce throughput on both servers, and the disabled-tracer
// row must carry the floor against the tracer-free server. The ratio
// itself is not asserted here — a toy stack is noisy; CI gates it at real
// scale.
func TestRunTraceOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trace overhead smoke skipped in -short")
	}
	tables, floors, err := gateTrace(Config{N: 20_000, Shards: 2, Workers: 2, Pipeline: 16, Duration: 5 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("tables = %+v, want one table with off, 1pct and 100pct rows", tables)
	}
	for _, row := range tables[0].Rows {
		if row[2] == "0" || row[3] == "0" {
			t.Errorf("variant %s: Kops/s %s against none %s, want positive throughput", row[0], row[2], row[3])
		}
	}
	wantFloors(t, floors, map[string]float64{"trace_overhead/off": traceFloor})
}
