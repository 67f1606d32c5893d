package store

import (
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/trace"
)

func testSpan(t *testing.T, ops int) (*trace.Tracer, *core.Span) {
	t.Helper()
	tr := trace.New(trace.Config{SampleRate: 1, Metrics: obs.NewMetrics("span-test")})
	sp := tr.Start(ops)
	if sp == nil {
		t.Fatal("Start returned nil at SampleRate 1")
	}
	return tr, sp
}

// spyIndex is a memIndex with the three batch capabilities, recording
// how often each ran and whether a span ever reached it.
type spyIndex struct {
	*memIndex
	lookups, inserts, deletes int
	sawSpan                   bool
}

func (x *spyIndex) LookupBatch(keys []core.Key, vals []core.Value, oks []bool, sp *core.Span) {
	x.lookups++
	x.sawSpan = x.sawSpan || sp != nil
	for i, k := range keys {
		vals[i], oks[i] = x.Get(k)
	}
}

func (x *spyIndex) InsertBatch(recs []core.KV, sp *core.Span) error {
	x.inserts++
	x.sawSpan = x.sawSpan || sp != nil
	for _, r := range recs {
		x.Insert(r.Key, r.Value)
	}
	return nil
}

func (x *spyIndex) DeleteBatch(keys []core.Key, oks []bool, sp *core.Span) error {
	x.deletes++
	x.sawSpan = x.sawSpan || sp != nil
	for i, k := range keys {
		oks[i] = x.Delete(k)
	}
	return nil
}

// TestDurableKeepsSpanFromInnerIndex pins the no-double-count rule: the
// durable layer reaches the wrapped index through its batch capabilities
// (one call for the whole batch, not a loop per record) and times that
// work into the shard stage itself, so the span stops here — an inner
// Sharded handed the same span would add its fan-out a second time.
func TestDurableKeepsSpanFromInnerIndex(t *testing.T) {
	spy := &spyIndex{memIndex: newMemIndex(nil)}
	d, err := Open(t.TempDir(), Config{Fsync: SyncNever, CheckpointEvery: -1},
		func(map[string]string, []core.KV) (BuildResult, error) {
			return BuildResult{Index: spy, Segments: 1}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	tr, sp := testSpan(t, 3)
	keys := []core.Key{1, 2, 3}
	if err := d.InsertBatch([]core.KV{{Key: 1, Value: 1}, {Key: 2, Value: 2}, {Key: 3, Value: 3}}, sp); err != nil {
		t.Fatal(err)
	}
	d.LookupBatch(keys, make([]core.Value, 3), make([]bool, 3), sp)
	if err := d.DeleteBatch(keys, make([]bool, 3), sp); err != nil {
		t.Fatal(err)
	}
	if spy.inserts != 1 || spy.lookups != 1 || spy.deletes != 1 {
		t.Errorf("inner batch calls = %d/%d/%d (insert/lookup/delete), want 1/1/1",
			spy.inserts, spy.lookups, spy.deletes)
	}
	if spy.sawSpan {
		t.Error("durable layer forwarded the span to the wrapped index (shard time counted twice)")
	}
	if sp.Stage(core.StageShard) <= 0 {
		t.Errorf("shard stage = %v, want > 0 (timed by the durable layer)", sp.Stage(core.StageShard))
	}
	tr.Finish(sp)
}

// TestDurableInsertSpanStages pins the write-path stage attribution: a
// span-carrying batched insert under SyncAlways records wal (framing into
// the log's buffer, and the commit's write), shard (in-memory apply) and
// fsync (the commit's fsync) time.
func TestDurableInsertSpanStages(t *testing.T) {
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
	if err := d.InsertBatch(recs, sp); err != nil {
		t.Fatal(err)
	}

	for _, st := range []core.Stage{core.StageWAL, core.StageShard, core.StageFsync} {
		if sp.Stage(st) <= 0 {
			t.Errorf("insert span stage %s = %v, want > 0", st, sp.Stage(st))
		}
	}
	if got := sp.Stage(core.StageDecode); got != 0 {
		t.Errorf("insert span decode stage = %v, want 0 (store never touches it)", got)
	}
	tr.Finish(sp)

	// The records landed despite the instrumentation detour.
	if v, ok := d.Get(63); !ok || v != 63 {
		t.Fatalf("Get(63) after span insert = (%d,%v)", v, ok)
	}

	// Nil span: no timing, no crash, same result.
	d.InsertBatch([]core.KV{{Key: 100, Value: 1}}, nil)
	if _, ok := d.Get(100); !ok {
		t.Fatal("nil-span insert lost the record")
	}
}

// TestDurableInsertSpanNoFsyncStage checks that fsync time is only
// attributed when the policy makes the commit fsync: under SyncNever the
// fsync stage stays zero while wal and shard still record.
func TestDurableInsertSpanNoFsyncStage(t *testing.T) {
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
	d.InsertBatch(recs, sp)
	if sp.Stage(core.StageWAL) <= 0 || sp.Stage(core.StageShard) <= 0 {
		t.Errorf("wal=%v shard=%v, want both > 0", sp.Stage(core.StageWAL), sp.Stage(core.StageShard))
	}
	if got := sp.Stage(core.StageFsync); got != 0 {
		t.Errorf("fsync stage under SyncNever = %v, want 0", got)
	}
	tr.Finish(sp)
}

// TestDurableDeleteSpanStages mirrors the insert pin for the delete path.
func TestDurableDeleteSpanStages(t *testing.T) {
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
	d.InsertBatch(recs, nil)

	tr, sp := testSpan(t, len(keys))
	oks := make([]bool, len(keys))
	if err := d.DeleteBatch(keys, oks, sp); err != nil {
		t.Fatal(err)
	}
	for i, ok := range oks {
		if !ok {
			t.Fatalf("delete %d missed", i)
		}
	}
	for _, st := range []core.Stage{core.StageWAL, core.StageShard, core.StageFsync} {
		if sp.Stage(st) <= 0 {
			t.Errorf("delete span stage %s = %v, want > 0", st, sp.Stage(st))
		}
	}
	tr.Finish(sp)

	// Nil span passthrough; the caller's stale oks is overwritten.
	if d.DeleteBatch([]core.Key{999}, oks[:1], nil); oks[0] {
		t.Error("nil-span delete of missing key reported true")
	}
}

// TestDurableLookupSpanStages pins the read-path rule: the durable layer
// adds no wal/fsync stages on reads — the whole batched lookup is shard
// time.
func TestDurableLookupSpanStages(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.InsertBatch([]core.KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}}, nil)

	tr, sp := testSpan(t, 3)
	vals, oks := make([]core.Value, 3), make([]bool, 3)
	d.LookupBatch([]core.Key{1, 2, 3}, vals, oks, sp)
	if !oks[0] || vals[0] != 10 || !oks[1] || vals[1] != 20 || oks[2] {
		t.Fatalf("lookup = %v %v", vals, oks)
	}
	if sp.Stage(core.StageShard) <= 0 {
		t.Errorf("lookup shard stage = %v, want > 0", sp.Stage(core.StageShard))
	}
	for _, st := range []core.Stage{core.StageWAL, core.StageFsync} {
		if got := sp.Stage(st); got != 0 {
			t.Errorf("lookup span stage %s = %v, want 0 on the read path", st, got)
		}
	}
	tr.Finish(sp)

	// Nil span passthrough.
	if d.LookupBatch([]core.Key{2}, vals[:1], oks[:1], nil); !oks[0] || vals[0] != 20 {
		t.Error("nil-span lookup broken")
	}
}

// TestUncommittedSpanStages pins where a deferred commit's time goes: the
// uncommitted batch records wal (framing) and shard time and no fsync, and
// the Commit that follows — the one the server makes inside the flush its
// span covers — adds the write to wal and the fsync to fsync.
func TestUncommittedSpanStages(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tr, sp := testSpan(t, 8)
	if err := apply(d, puts(kvs(0, 8)), sp); err != nil {
		t.Fatal(err)
	}
	framed := sp.Stage(core.StageWAL)
	if framed <= 0 || sp.Stage(core.StageShard) <= 0 || sp.Stage(core.StageFsync) != 0 {
		t.Errorf("uncommitted batch: wal=%v shard=%v fsync=%v, want wal and shard only", framed, sp.Stage(core.StageShard), sp.Stage(core.StageFsync))
	}
	if err := d.Commit(sp); err != nil {
		t.Fatal(err)
	}
	if sp.Stage(core.StageWAL) <= framed || sp.Stage(core.StageFsync) <= 0 {
		t.Errorf("after Commit: wal=%v (was %v) fsync=%v, want both to have grown", sp.Stage(core.StageWAL), framed, sp.Stage(core.StageFsync))
	}
	tr.Finish(sp)
}
