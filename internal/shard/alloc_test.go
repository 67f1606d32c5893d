package shard

import (
	"runtime"
	"testing"

	"github.com/lix-go/lix/internal/alex"
	"github.com/lix-go/lix/internal/core"
)

// The allocation regression tier: the serving read path and the batch
// entry points must not allocate in steady state. AllocsPerRun pins the
// exact budgets so any future "small" allocation on these paths fails a
// test instead of surfacing as a throughput regression months later.
//
// Both batch regimes are pinned at the same sizes: the fan-out regime's
// counting sort, join and goroutine bodies all live in the pooled
// batchScratch, so starting the per-shard goroutines allocates nothing
// either.

func allocStack(t *testing.T) *Sharded {
	t.Helper()
	s, err := New(sortedRecs(4096, 7), Config{Shards: 8}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// needTwoProcs raises GOMAXPROCS to 2 for the test on a single-P run: the
// fan-out regime is only selected with a second P.
func needTwoProcs(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(1) })
	}
}

// forceFanOut puts every batch of s, whatever its size, through the
// fan-out regime: the size threshold is the same-package seam.
func forceFanOut(t *testing.T, s *Sharded) {
	s.fanoutMin = 1
	needTwoProcs(t)
}

func batchKeys(s *Sharded, n int) []core.Key {
	// Every 97th preloaded key: spans several shards for n >= 16 so the
	// multi-shard paths (coalesced and grouped) are both exercised.
	recs := s.SearchRange(0, core.Key(1<<63))
	keys := make([]core.Key, n)
	for i := range keys {
		keys[i] = recs[(i*97)%len(recs)].Key
	}
	return keys
}

// forBatchRegimes runs fn on both batch regimes: runs cut from stretches
// of same-shard keys on the calling goroutine, and counting-sort groups
// fanned out one goroutine per shard. The subtests keep the "rw/" they
// were named with while there was a second lock mode.
func forBatchRegimes(t *testing.T, fn func(t *testing.T, s *Sharded)) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	for _, regime := range []string{"stretches", "fanout"} {
		t.Run("rw/"+regime, func(t *testing.T) {
			s := allocStack(t)
			if regime == "fanout" {
				forceFanOut(t, s)
			}
			fn(t, s)
		})
	}
}

// liveSpans is the span argument of a pinned call: absent and sampled.
// Span attribution is two clock reads and an atomic add, never memory.
func liveSpans() []*core.Span {
	sp := new(core.Span)
	sp.Reset(1)
	return []*core.Span{nil, sp}
}

// TestLookupBatchZeroAlloc pins 0 allocs/op for the batched read path at
// sizes 1/16/256 in both regimes, span off and on.
func TestLookupBatchZeroAlloc(t *testing.T) {
	forBatchRegimes(t, func(t *testing.T, s *Sharded) {
		for _, size := range []int{1, 16, 256} {
			keys := batchKeys(s, size)
			vals := make([]core.Value, size)
			oks := make([]bool, size)
			// Warm the scratch pool outside the measurement.
			s.LookupBatch(keys, vals, oks, nil)
			for _, sp := range liveSpans() {
				if got := testing.AllocsPerRun(200, func() {
					s.LookupBatch(keys, vals, oks, sp)
				}); got != 0 {
					t.Errorf("size %d, span %v: %v allocs/op, want 0", size, sp != nil, got)
				}
			}
			for i := range keys {
				if !oks[i] {
					t.Fatalf("size %d: key %d missing", size, keys[i])
				}
			}
		}
	})
}

// TestDeleteBatchZeroAlloc pins 0 allocs/op for batched deletes — the
// caller owns oks, so the plumbing has nothing left to allocate — at
// sizes 1/16/256 in both regimes, span off and on.
// The first call removes the keys; the pinned calls delete absent keys,
// which changes no tree, so the batch plumbing is what is measured.
func TestDeleteBatchZeroAlloc(t *testing.T) {
	forBatchRegimes(t, func(t *testing.T, s *Sharded) {
		for _, size := range []int{1, 16, 256} {
			keys := batchKeys(s, size)
			oks := make([]bool, size)
			s.DeleteBatch(keys, oks, nil)
			for _, sp := range liveSpans() {
				if got := testing.AllocsPerRun(200, func() {
					s.DeleteBatch(keys, oks, sp)
				}); got != 0 {
					t.Errorf("size %d, span %v: %v allocs/op, want 0", size, sp != nil, got)
				}
			}
			for i := range keys {
				if oks[i] {
					t.Fatalf("size %d: key %d deleted twice", size, keys[i])
				}
			}
		}
	})
}

// TestGetZeroAlloc pins 0 allocs/op for single-key reads: a lock and a
// tree walk.
func TestGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	t.Run("rw", func(t *testing.T) {
		s := allocStack(t)
		keys := batchKeys(s, 256)
		i := 0
		if got := testing.AllocsPerRun(500, func() {
			k := keys[i%len(keys)]
			i++
			if _, ok := s.Get(k); !ok {
				t.Fatalf("key %d missing", k)
			}
		}); got != 0 {
			t.Errorf("%v allocs/op, want 0", got)
		}
	})
}

// TestInsertBatchSteadyStateZeroAlloc pins 0 allocs/op for batched
// upserts of existing keys, both regimes (value overwrite in place: no
// tree growth, so the batch plumbing itself is what is measured).
func TestInsertBatchSteadyStateZeroAlloc(t *testing.T) {
	forBatchRegimes(t, func(t *testing.T, s *Sharded) {
		for _, size := range []int{1, 16, 256} {
			keys := batchKeys(s, size)
			recs := make([]core.KV, size)
			for i, k := range keys {
				recs[i] = core.KV{Key: k, Value: core.Value(i)}
			}
			s.InsertBatch(recs, nil)
			for _, sp := range liveSpans() {
				if got := testing.AllocsPerRun(200, func() {
					s.InsertBatch(recs, sp)
				}); got != 0 {
					t.Errorf("size %d, span %v: %v allocs/op, want 0", size, sp != nil, got)
				}
			}
		}
	})
}

// TestAlexInsertSteadyStateZeroAlloc pins 0 allocs/op for a point Insert
// of a new key into ALEX shards when no leaf has to expand or split — the
// write the serving mix makes: the descent keeps no path on the heap and
// placing the key is a shift inside the gapped array. Each run inserts a
// key and deletes it again, so the leaves never fill up.
func TestAlexInsertSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race")
	}
	recs := sortedRecs(50_000, 7) // leaves under inner nodes in every shard
	s, err := New(recs, Config{Shards: 4}, Builders{
		Bulk: func(recs []core.KV) (MutableIndex, error) {
			ix, err := alex.Bulk(recs)
			return alexIx{ix}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	i := 0
	if got := testing.AllocsPerRun(2000, func() {
		k := recs[(i*97)%len(recs)].Key + 1 // absent: the preload's keys are 64-bit random
		i++
		s.Insert(k, 1)
		if !s.Delete(k) {
			t.Fatalf("key %d not there after its insert", k)
		}
	}); got != 0 {
		t.Errorf("%v allocs per insert+delete, want 0", got)
	}
}

type alexIx struct{ *alex.Index }

func (a alexIx) Insert(k core.Key, v core.Value) { a.Index.Insert(k, v) }

// mixedOps is a steady-state mixed batch over keys: gets of present keys,
// overwrites of present keys and deletes of absent ones, so no run of it
// changes a tree's shape.
func mixedOps(keys []core.Key) []core.Op {
	ops := make([]core.Op, len(keys))
	for i, k := range keys {
		switch i % 3 {
		case 0:
			ops[i] = core.Op{Kind: core.OpGet, Key: k}
		case 1:
			ops[i] = core.Op{Kind: core.OpPut, Key: k, Val: core.Value(i)}
		default:
			ops[i] = core.Op{Kind: core.OpDel, Key: k + 1}
		}
	}
	return ops
}

// TestApplyZeroAlloc pins 0 allocs/op for mixed batches at sizes 1/16/256
// in both regimes — grouped by shard on the caller, and fanned out — span
// off and on.
func TestApplyZeroAlloc(t *testing.T) {
	forBatchRegimes(t, func(t *testing.T, s *Sharded) {
		for _, size := range []int{1, 16, 256} {
			ops := mixedOps(batchKeys(s, size))
			vals, oks := make([]core.Value, size), make([]bool, size)
			s.Apply(ops, vals, oks, nil)
			for _, sp := range liveSpans() {
				if got := testing.AllocsPerRun(200, func() {
					s.Apply(ops, vals, oks, sp)
				}); got != 0 {
					t.Errorf("size %d, span %v: %v allocs/op, want 0", size, sp != nil, got)
				}
			}
			for i, op := range ops {
				if op.Kind == core.OpGet && !oks[i] {
					t.Fatalf("size %d: key %d missing", size, op.Key)
				}
				if op.Kind == core.OpDel && oks[i] {
					t.Fatalf("size %d: absent key %d deleted", size, op.Key)
				}
			}
		}
	})
}
