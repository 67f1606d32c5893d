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

// spyIndex is a memIndex with the batch capability, recording how often
// it ran and whether a span ever reached it.
type spyIndex struct {
	*memIndex
	applies int
	sawSpan bool
}

func (x *spyIndex) Apply(ops []core.Op, vals []core.Value, oks []bool, sp *core.Span) error {
	x.applies++
	x.sawSpan = x.sawSpan || sp != nil
	for i, op := range ops {
		switch op.Kind {
		case core.OpGet:
			vals[i], oks[i] = x.Get(op.Key)
		case core.OpPut:
			x.Insert(op.Key, op.Val)
		case core.OpDel:
			oks[i] = x.Delete(op.Key)
		}
	}
	return nil
}

// TestDurableKeepsSpanFromInnerIndex pins the no-double-count rule: the
// durable layer reaches the wrapped index through its batch capability
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
	if err := applyCommit(d, puts(kvs(1, 3)), sp); err != nil {
		t.Fatal(err)
	}
	if err := apply(d, gets(1, 2, 3), sp); err != nil {
		t.Fatal(err)
	}
	if err := applyCommit(d, dels(1, 2, 3), sp); err != nil {
		t.Fatal(err)
	}
	if spy.applies != 3 {
		t.Errorf("inner batch calls = %d for a batch of puts, one of gets and one of deletes, want 3", spy.applies)
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
// span-carrying batch of puts and its commit under SyncAlways record wal
// (framing into the log's buffer, and the commit's write), shard
// (in-memory apply) and fsync (the commit's fsync) time.
func TestDurableInsertSpanStages(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	tr, sp := testSpan(t, 64)
	if err := applyCommit(d, puts(kvs(0, 64)), sp); err != nil {
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
	if v, ok := d.Get(63); !ok || v != 64 {
		t.Fatalf("Get(63) after span insert = (%d,%v)", v, ok)
	}

	// Nil span: no timing, no crash, same result.
	applyCommit(d, puts(kvs(100, 1)), nil)
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
	applyCommit(d, puts(kvs(0, 8)), sp)
	if sp.Stage(core.StageWAL) <= 0 || sp.Stage(core.StageShard) <= 0 {
		t.Errorf("wal=%v shard=%v, want both > 0", sp.Stage(core.StageWAL), sp.Stage(core.StageShard))
	}
	if got := sp.Stage(core.StageFsync); got != 0 {
		t.Errorf("fsync stage under SyncNever = %v, want 0", got)
	}
	tr.Finish(sp)
}

// TestDurableDeleteSpanStages mirrors the insert pin for a batch of
// deletes.
func TestDurableDeleteSpanStages(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	keys := make([]core.Key, 32)
	for i := range keys {
		keys[i] = core.Key(i)
	}
	applyCommit(d, puts(kvs(0, 32)), nil)

	tr, sp := testSpan(t, len(keys))
	vals, oks := make([]core.Value, len(keys)), make([]bool, len(keys))
	if err := d.Apply(dels(keys...), vals, oks, sp); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(sp); err != nil {
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
	if d.Apply(dels(999), vals[:1], oks[:1], nil); oks[0] {
		t.Error("nil-span delete of missing key reported true")
	}
}

// TestDurableLookupSpanStages pins the read-path rule: a batch of gets
// adds no wal/fsync stages, and neither does the Commit behind it, which
// has nothing to write — the whole lookup is shard time.
func TestDurableLookupSpanStages(t *testing.T) {
	d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	applyCommit(d, puts([]core.KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}}), nil)

	tr, sp := testSpan(t, 3)
	vals, oks := make([]core.Value, 3), make([]bool, 3)
	if err := d.Apply(gets(1, 2, 3), vals, oks, sp); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(sp); err != nil {
		t.Fatal(err)
	}
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
	if d.Apply(gets(2), vals[:1], oks[:1], nil); !oks[0] || vals[0] != 20 {
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
