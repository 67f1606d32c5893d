package shard

import (
	"runtime"
	"testing"

	"github.com/lix-go/lix/internal/alex"
	"github.com/lix-go/lix/internal/core"
)

// The allocation regression tier: the serving read path and the batch
// entry point must not allocate in steady state. AllocsPerRun pins the
// exact budgets so any future "small" allocation on these paths fails a
// test instead of surfacing as a throughput regression months later.
//
// Both batch regimes are pinned at the same sizes: the fan-out regime's
// counting sort, join and goroutine bodies all live in the pooled
// batchScratch, so starting the per-shard goroutines allocates nothing
// either.

func allocStack(t *testing.T, b Builders) *Sharded {
	t.Helper()
	s, err := New(sortedRecs(4096, 7), Config{Shards: 8}, b)
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
	// multi-shard paths (grouped and fanned out) are both exercised.
	recs := s.SearchRange(0, core.Key(1<<63))
	keys := make([]core.Key, n)
	for i := range keys {
		keys[i] = recs[(i*97)%len(recs)].Key
	}
	return keys
}

// forBatchRegimes runs fn on both batch regimes — groups by shard done in
// turn on the calling goroutine, and the same groups fanned out one
// goroutine per shard — over both backends with their own Apply, which
// the groups are gathered for. The B+-tree subtests keep the "rw/" they
// were named with while there was a second lock mode, and the caller-side
// regime keeps "stretches" from when small batches were cut into
// same-shard stretches.
func forBatchRegimes(t *testing.T, fn func(t *testing.T, s *Sharded)) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	for _, backend := range []struct {
		name string
		b    Builders
	}{{"rw", testBuilders()}, {"alex", alexBuilders()}} {
		for _, regime := range []string{"stretches", "fanout"} {
			t.Run(backend.name+"/"+regime, func(t *testing.T) {
				s := allocStack(t, backend.b)
				if regime == "fanout" {
					forceFanOut(t, s)
				}
				fn(t, s)
			})
		}
	}
}

// liveSpans is the span argument of a pinned call: absent and sampled.
// Span attribution is two clock reads and an atomic add, never memory.
func liveSpans() []*core.Span {
	sp := new(core.Span)
	sp.Reset(1)
	return []*core.Span{nil, sp}
}

// TestGetZeroAlloc pins 0 allocs/op for single-key reads: a lock and a
// tree walk.
func TestGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	t.Run("rw", func(t *testing.T) {
		s := allocStack(t, testBuilders())
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
	s, err := New(recs, Config{Shards: 4}, alexBuilders())
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

// alexBuilders wires the shard layer to an ALEX backend.
func alexBuilders() Builders {
	return Builders{Bulk: func(recs []core.KV) (MutableIndex, error) {
		ix, err := alex.Bulk(recs)
		return ix, err
	}}
}

// The steady-state ops over a present key k (the i-th of a batch): a get of
// it, an overwrite of it, and a delete of its absent neighbour. No batch of
// them changes a tree's shape, so the batch plumbing is what is measured.
func getOp(i int, k core.Key) core.Op { return core.Op{Kind: core.OpGet, Key: k} }
func putOp(i int, k core.Key) core.Op { return core.Op{Kind: core.OpPut, Key: k, Val: core.Value(i)} }
func delOp(i int, k core.Key) core.Op { return core.Op{Kind: core.OpDel, Key: k + 1} }
func mixedOp(i int, k core.Key) core.Op {
	return []func(int, core.Key) core.Op{getOp, putOp, delOp}[i%3](i, k)
}

// pinApplyZeroAlloc pins 0 allocs/op for Apply over batches made by op at
// sizes 1/16/256 in both regimes, span off and on. The caller owns vals
// and oks, so the plumbing has nothing left to allocate.
func pinApplyZeroAlloc(t *testing.T, op func(i int, k core.Key) core.Op) {
	forBatchRegimes(t, func(t *testing.T, s *Sharded) {
		for _, size := range []int{1, 16, 256} {
			ops := make([]core.Op, size)
			for i, k := range batchKeys(s, size) {
				ops[i] = op(i, k)
			}
			vals, oks := make([]core.Value, size), make([]bool, size)
			// Warm the scratch pool outside the measurement.
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

// TestLookupBatchZeroAlloc pins the batched read path: Apply over gets only.
func TestLookupBatchZeroAlloc(t *testing.T) { pinApplyZeroAlloc(t, getOp) }

// TestInsertBatchSteadyStateZeroAlloc pins batched upserts of existing keys
// (value overwrite in place, no tree growth): Apply over puts only.
func TestInsertBatchSteadyStateZeroAlloc(t *testing.T) { pinApplyZeroAlloc(t, putOp) }

// TestDeleteBatchZeroAlloc pins batched deletes of absent keys, which
// change no tree: Apply over deletes only.
func TestDeleteBatchZeroAlloc(t *testing.T) { pinApplyZeroAlloc(t, delOp) }

// TestApplyZeroAlloc pins Apply over gets, puts and deletes interleaved.
func TestApplyZeroAlloc(t *testing.T) { pinApplyZeroAlloc(t, mixedOp) }
