package shard

import (
	"fmt"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// The allocation regression tier: the serving read path and the batch
// entry points must not allocate in steady state. AllocsPerRun pins the
// exact budgets so any future "small" allocation on these paths fails a
// test instead of surfacing as a throughput regression months later.
//
// Batch sizes stay below batchParallelMin so the measurements exercise
// the sequential paths deterministically (the parallel fan-out spawns
// goroutines by design and is exercised by the scaling tier instead).

func allocStack(t *testing.T, mode LockMode, metrics bool) *Sharded {
	t.Helper()
	cfg := Config{Shards: 8, Mode: mode, DeltaCap: 1 << 20}
	if metrics {
		cfg.MetricsPrefix = "alloc"
	}
	s, err := New(sortedRecs(4096, 7), cfg, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
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

// forBatchRegimes runs fn for both lock modes on both batch regimes: the
// small-batch coalesced path and (with per-shard metrics attached, which
// force it) the grouped counting-sort path with its pooled scratch.
func forBatchRegimes(t *testing.T, fn func(t *testing.T, s *Sharded)) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	for _, mode := range []LockMode{LockRW, LockRCU} {
		for _, metrics := range []bool{false, true} {
			path := "coalesced"
			if metrics {
				path = "grouped"
			}
			t.Run(fmt.Sprintf("%s/%s", mode, path), func(t *testing.T) {
				fn(t, allocStack(t, mode, metrics))
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

// TestLookupBatchZeroAlloc pins 0 allocs/op for the batched read path at
// sizes 1/16/256 in both lock modes and both regimes, span off and on.
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
// sizes 1/16/256 in both lock modes and both regimes, span off and on.
// The first call removes the keys; the pinned calls delete absent keys,
// which touches no tree and appends no delta, so the batch plumbing is
// what is measured.
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

// TestGetZeroAlloc pins 0 allocs/op for single-key reads: the RW path is
// a lock and a tree walk, the RCU path an epoch pin and a three-layer
// probe — neither may allocate.
func TestGetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	for _, mode := range []LockMode{LockRW, LockRCU} {
		t.Run(mode.String(), func(t *testing.T) {
			s := allocStack(t, mode, false)
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
}

// TestInsertBatchSteadyStateZeroAlloc pins 0 allocs/op for batched
// upserts of existing keys in RW mode (value overwrite in place: no tree
// growth, no delta append, so the batch plumbing itself is what is
// measured).
func TestInsertBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	s := allocStack(t, LockRW, false)
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
}

// TestRCUReadZeroAllocDuringMerges pins the RCU read path at 0 allocs
// even while background merges churn snapshots underneath it: epoch
// pin/unpin and the three-layer probe stay allocation-free regardless of
// merge activity.
func TestRCUReadZeroAllocDuringMerges(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun pins skipped under -race: sync.Pool sheds items at random there")
	}
	s, err := New(sortedRecs(4096, 7), Config{Shards: 4, Mode: LockRCU, DeltaCap: 64}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := batchKeys(s, 64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Insert(keys[i%len(keys)], core.Value(i))
		}
	}()
	i := 0
	got := testing.AllocsPerRun(500, func() {
		k := keys[i%len(keys)]
		i++
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %d missing", k)
		}
	})
	close(stop)
	<-done
	if got != 0 {
		t.Errorf("%v allocs/op, want 0", got)
	}
}
