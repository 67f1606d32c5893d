package lix

import (
	"reflect"
	"sync"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// putOps and keyOps are same-kind batches: upserts of recs, and gets or
// deletes of keys.
func putOps(recs []KV) []Op {
	ops := make([]Op, len(recs))
	for i, r := range recs {
		ops[i] = Op{Kind: OpPut, Key: r.Key, Val: r.Value}
	}
	return ops
}

func keyOps(kind core.OpKind, keys ...Key) []Op {
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: kind, Key: k}
	}
	return ops
}

// applyOps does ops on ix and returns the answers.
func applyOps(ix core.Applier, ops []Op) ([]Value, []bool, error) {
	vals, oks := make([]Value, len(ops)), make([]bool, len(ops))
	err := ix.Apply(ops, vals, oks, nil)
	return vals, oks, err
}

func stackRecs(n int) []KV {
	recs := make([]KV, n)
	for i := range recs {
		recs[i] = KV{Key: Key(i * 3), Value: Value(i)}
	}
	return recs
}

func TestStackPlain(t *testing.T) {
	s, err := NewStack(stackRecs(100), StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Sharded() != nil || s.Durable() != nil || s.Metrics() != nil {
		t.Fatal("plain stack grew unexpected layers")
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if v, ok := s.Get(30); !ok || v != 10 {
		t.Fatalf("Get(30) = (%d, %v), want (10, true)", v, ok)
	}
	if _, _, err := applyOps(s, putOps([]KV{{Key: 1, Value: 100}, {Key: 1, Value: 101}})); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(1); !ok || v != 101 {
		t.Fatalf("later-wins batch of puts: Get(1) = (%d, %v), want (101, true)", v, ok)
	}
	if _, oks, err := applyOps(s, keyOps(OpDel, 1, 1)); err != nil || !reflect.DeepEqual(oks, []bool{true, false}) {
		t.Fatalf("batch deletes of a duplicate = %v, %v, want [true false]", oks, err)
	}
	if err := s.Commit(nil); err != nil {
		t.Fatalf("Commit of an in-memory stack = %v", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err() of an in-memory stack = %v", err)
	}
	if out := s.SearchRange(10, 5); out == nil || len(out) != 0 {
		t.Fatalf("inverted SearchRange = %v, want non-nil empty", out)
	}
}

func TestStackShardedAndObserved(t *testing.T) {
	m := NewMetrics("stack")
	s, err := NewStack(stackRecs(1000), StackConfig{Kind: "btree", Shards: 4, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Sharded() == nil {
		t.Fatal("Sharded() = nil for a sharded stack")
	}
	if s.Metrics() != m {
		t.Fatal("Metrics() did not round-trip")
	}
	keys := make([]Key, 200)
	for i := range keys {
		keys[i] = Key(i * 3)
	}
	vals, oks, err := applyOps(s, keyOps(OpGet, keys...))
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !oks[i] || vals[i] != Value(i) {
			t.Fatalf("batch get %d = (%d, %v), want (%d, true)", i, vals[i], oks[i], i)
		}
	}
	got := s.SearchRange(0, 60)
	if len(got) != 21 {
		t.Fatalf("SearchRange(0, 60) returned %d records, want 21", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key >= got[i].Key {
			t.Fatalf("SearchRange out of order at %d: %v", i, got)
		}
	}
	snap := m.Snapshot()
	if snap.Counters["batches"] == 0 {
		t.Fatal("obs layer did not count the batch")
	}
	if snap.Counters["lookups"] < 200 {
		t.Fatalf("lookups = %d, want >= 200", snap.Counters["lookups"])
	}
	if snap.Counters["hits"] != 200 {
		t.Fatalf("hits = %d, want the batch's 200", snap.Counters["hits"])
	}
	if snap.Counters["ranges"] == 0 {
		t.Fatal("obs layer did not count SearchRange")
	}
}

func TestStackDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics("stack-durable")
	s, err := NewStack(stackRecs(500), StackConfig{
		Dir: dir, Shards: 2, Fsync: FsyncNever, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Durable() == nil || s.Sharded() == nil {
		t.Fatal("durable sharded stack missing a layer accessor")
	}
	if _, _, err := applyOps(s, putOps([]KV{{Key: 7, Value: 70}, {Key: 11, Value: 110}})); err != nil {
		t.Fatal(err)
	}
	if _, oks, err := applyOps(s, keyOps(OpDel, 7)); err != nil || !oks[0] {
		t.Fatalf("batch delete of 7 = %v, %v, want true", oks[0], err)
	}
	if err := s.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err() of a healthy durable stack = %v", err)
	}
	// Close through the obs wrapper's io.Closer forwarding — no unwrapping.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewStack(nil, StackConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Sharded() == nil {
		t.Fatal("reopened stack lost its shard layer (meta shards not recovered)")
	}
	if _, ok := r.Get(7); ok {
		t.Fatal("deleted key 7 survived recovery")
	}
	if v, ok := r.Get(11); !ok || v != 110 {
		t.Fatalf("Get(11) after reopen = (%d, %v), want (110, true)", v, ok)
	}
	if r.Len() != 501 {
		t.Fatalf("Len after reopen = %d, want 501", r.Len())
	}
}

func TestStackConfigErrors(t *testing.T) {
	if _, err := NewStack(nil, StackConfig{Kind: "no-such-kind"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := NewStack(nil, StackConfig{Kind: "rmi"}); err == nil {
		t.Fatal("static-only kind accepted as stack backend")
	}
	// StorageEngine selects nothing any more; it only rejects what it
	// never knew.
	if _, err := NewStack(nil, StackConfig{Dir: t.TempDir(), StorageEngine: "snapshot"}); err == nil {
		t.Fatal("a storage engine that does not exist accepted")
	}
	for _, engine := range []string{"", EngineLSM} {
		st, err := NewStack(nil, StackConfig{Dir: t.TempDir(), StorageEngine: engine})
		if err != nil {
			t.Fatalf("StorageEngine %q rejected: %v", engine, err)
		}
		st.Close()
	}
}

// TestSearchRangeThroughWrappers pins the satellite fix: SearchRange
// dispatches on the RangeSearcher capability, so a Sharded keeps its
// parallel fan-out behind the obs wrapper instead of degrading to a
// sequential scan — and the results stay identical either way.
func TestSearchRangeThroughWrappers(t *testing.T) {
	recs := stackRecs(800)
	st, err := NewStack(recs, StackConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sh := st.Sharded()
	wrapped := Observe(sh, NewMetrics("wrapped"))
	direct := sh.SearchRange(100, 2000)
	viaWrapper := SearchRange(wrapped, 100, 2000)
	if !reflect.DeepEqual(direct, viaWrapper) {
		t.Fatalf("SearchRange through obs wrapper diverged: %d vs %d records",
			len(direct), len(viaWrapper))
	}
	if len(direct) == 0 {
		t.Fatal("empty fan-out result")
	}
}

// TestStackBatchSpansConcurrent drives batches of puts (then Commit), gets
// and deletes through the full forwarding chain (Stack → obs → durable →
// sharded) from several goroutines at once, all recording into one shared live span —
// the shape of a parallel fan-out — so the race tier covers the span
// crossing every layer concurrently. Each goroutine owns a key range and
// its result buffers, so answers are exact.
func TestStackBatchSpansConcurrent(t *testing.T) {
	s, err := NewStack(nil, StackConfig{
		Dir: t.TempDir(), Shards: 4, Fsync: FsyncNever, CheckpointEvery: -1, Metrics: NewMetrics("spans"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sp Span
	sp.Reset(1)
	const workers, per, rounds = 4, 64, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			recs, keys := make([]KV, per), make([]Key, per)
			vals, oks := make([]Value, per), make([]bool, per)
			for i := range recs {
				keys[i] = Key(w*per + i)
				recs[i] = KV{Key: keys[i], Value: Value(w)}
			}
			puts, gets, dels := putOps(recs), keyOps(OpGet, keys...), keyOps(OpDel, keys...)
			for r := 0; r < rounds; r++ {
				if err := s.Apply(puts, vals, oks, &sp); err != nil {
					t.Errorf("worker %d: puts: %v", w, err)
					return
				}
				if err := s.Commit(&sp); err != nil {
					t.Errorf("worker %d: Commit: %v", w, err)
					return
				}
				if err := s.Apply(gets, vals, oks, &sp); err != nil {
					t.Errorf("worker %d: gets: %v", w, err)
					return
				}
				for i := range keys {
					if !oks[i] || vals[i] != Value(w) {
						t.Errorf("worker %d: get %d = (%d, %v), want (%d, true)", w, i, vals[i], oks[i], w)
						return
					}
				}
				if err := s.Apply(dels, vals, oks, &sp); err != nil {
					t.Errorf("worker %d: deletes: %v", w, err)
					return
				}
				for i, ok := range oks {
					if !ok {
						t.Errorf("worker %d: delete %d = false, want true", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Errorf("Len = %d after every batch was deleted, want 0", s.Len())
	}
	if sp.Stage(StageShard) <= 0 || sp.Stage(StageWAL) <= 0 {
		t.Errorf("shared span: shard=%v wal=%v, want both > 0", sp.Stage(StageShard), sp.Stage(StageWAL))
	}
}

// TestStackApplyZeroAlloc pins 0 allocs/op for one pipelined group's worth
// of mixed ops — 32 gets, overwrites and deletes of absent keys — through
// a durable, sharded, observed stack in steady state: the obs wrapper's
// accounting, the durable layer's locks and log framing, and the shard
// layer's grouping all reuse what they hold.
func TestStackApplyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	recs := stackRecs(4096)
	st, err := NewStack(recs, StackConfig{
		Kind: "btree", Shards: 4, Dir: t.TempDir(), Fsync: FsyncNever, CheckpointEvery: -1,
		Metrics: NewMetrics("apply-alloc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ops := make([]Op, 32)
	for i := range ops {
		k := recs[(i*97)%len(recs)].Key
		switch i % 10 {
		case 0, 1, 2, 3, 4:
			ops[i] = Op{Kind: OpGet, Key: k}
		case 5, 6, 7, 8:
			ops[i] = Op{Kind: OpPut, Key: k, Val: Value(i)}
		default:
			ops[i] = Op{Kind: OpDel, Key: k + 1}
		}
	}
	vals, oks := make([]Value, len(ops)), make([]bool, len(ops))
	for i := 0; i < 2; i++ { // grow the log's two buffers and warm the pool
		if err := st.Apply(ops, vals, oks, nil); err != nil {
			t.Fatal(err)
		}
		if err := st.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(500, func() {
		if err := st.Apply(ops, vals, oks, nil); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("%v allocs per Apply of %d mixed ops, want 0", got, len(ops))
	}
}
