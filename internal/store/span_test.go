package store

import (
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/trace"
)

func testSpan(t *testing.T, ops int) (*trace.Tracer, *trace.Span) {
	t.Helper()
	tr := trace.New(trace.Config{SampleRate: 1, Metrics: obs.NewMetrics("span-test")})
	sp := tr.Start(ops)
	if sp == nil {
		t.Fatal("Start returned nil at SampleRate 1")
	}
	return tr, sp
}

// TestDurableInsertBatchSpan pins the write-path stage attribution: a
// span-carrying batched insert under SyncAlways records wal (frame
// encode + append), shard (in-memory apply) and fsync (group commit)
// time, summed over the touched segments.
func TestDurableInsertBatchSpan(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	recs := make([]core.KV, 64)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i), Value: core.Value(i)}
	}
	tr, sp := testSpan(t, len(recs))
	d.InsertBatchSpan(recs, sp)

	for _, st := range []trace.Stage{trace.StageWAL, trace.StageShard, trace.StageFsync} {
		if sp.Stage(st) <= 0 {
			t.Errorf("insert span stage %s = %v, want > 0", st, sp.Stage(st))
		}
	}
	if got := sp.Stage(trace.StageDecode); got != 0 {
		t.Errorf("insert span decode stage = %v, want 0 (store never touches it)", got)
	}
	tr.Finish(sp)

	// The records landed despite the instrumentation detour.
	if v, ok := d.Get(63); !ok || v != 63 {
		t.Fatalf("Get(63) after span insert = (%d,%v)", v, ok)
	}

	// Nil span: plain batch path, no crash, same result.
	d.InsertBatchSpan([]core.KV{{Key: 100, Value: 1}}, nil)
	if _, ok := d.Get(100); !ok {
		t.Fatal("nil-span insert lost the record")
	}
}

// TestDurableInsertBatchSpanNoFsyncStage checks that fsync time is only
// attributed when the policy actually group-commits: under SyncNever the
// fsync stage stays zero while wal and shard still record.
func TestDurableInsertBatchSpanNoFsyncStage(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	tr, sp := testSpan(t, 8)
	recs := make([]core.KV, 8)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i), Value: core.Value(i)}
	}
	d.InsertBatchSpan(recs, sp)
	if sp.Stage(trace.StageWAL) <= 0 || sp.Stage(trace.StageShard) <= 0 {
		t.Errorf("wal=%v shard=%v, want both > 0", sp.Stage(trace.StageWAL), sp.Stage(trace.StageShard))
	}
	if got := sp.Stage(trace.StageFsync); got != 0 {
		t.Errorf("fsync stage under SyncNever = %v, want 0", got)
	}
	tr.Finish(sp)
}

// TestDurableDeleteBatchSpan mirrors the insert pin for the delete path.
func TestDurableDeleteBatchSpan(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	recs := make([]core.KV, 32)
	keys := make([]core.Key, 32)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i), Value: core.Value(i)}
		keys[i] = core.Key(i)
	}
	d.InsertBatch(recs)

	tr, sp := testSpan(t, len(keys))
	oks := d.DeleteBatchSpan(keys, sp)
	for i, ok := range oks {
		if !ok {
			t.Fatalf("delete %d missed", i)
		}
	}
	for _, st := range []trace.Stage{trace.StageWAL, trace.StageShard, trace.StageFsync} {
		if sp.Stage(st) <= 0 {
			t.Errorf("delete span stage %s = %v, want > 0", st, sp.Stage(st))
		}
	}
	tr.Finish(sp)

	// Nil span passthrough.
	if oks := d.DeleteBatchSpan([]core.Key{999}, nil); oks[0] {
		t.Error("nil-span delete of missing key reported true")
	}
}

// TestDurableLookupBatchSpan pins the read-path rule: the durable layer
// adds no wal/fsync stages on reads — the whole batched lookup is shard
// time.
func TestDurableLookupBatchSpan(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.InsertBatch([]core.KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}})

	tr, sp := testSpan(t, 3)
	vals, oks := d.LookupBatchSpan([]core.Key{1, 2, 3}, sp)
	if !oks[0] || vals[0] != 10 || !oks[1] || vals[1] != 20 || oks[2] {
		t.Fatalf("lookup = %v %v", vals, oks)
	}
	if sp.Stage(trace.StageShard) <= 0 {
		t.Errorf("lookup shard stage = %v, want > 0", sp.Stage(trace.StageShard))
	}
	for _, st := range []trace.Stage{trace.StageWAL, trace.StageFsync} {
		if got := sp.Stage(st); got != 0 {
			t.Errorf("lookup span stage %s = %v, want 0 on the read path", st, got)
		}
	}
	tr.Finish(sp)

	// Nil span passthrough.
	if vals, oks := d.LookupBatchSpan([]core.Key{1}, nil); !oks[0] || vals[0] != 10 {
		t.Error("nil-span lookup broken")
	}
}
