package shard

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/lix-go/lix/internal/btree"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// testBuilders wires the shard layer to a B+-tree backend without
// importing the façade (which imports this package's consumers).
func testBuilders() Builders {
	return Builders{
		New: func() (MutableIndex, error) { return btree.New(0), nil },
		Bulk: func(recs []core.KV) (MutableIndex, error) {
			t, err := btree.Bulk(btree.DefaultOrder, recs)
			if err != nil {
				return nil, err
			}
			return t, nil
		},
	}
}

func sortedRecs(n int, seed int64) []core.KV {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[core.Key]bool, n)
	recs := make([]core.KV, 0, n)
	for len(recs) < n {
		k := core.Key(r.Uint64())
		if seen[k] {
			continue
		}
		seen[k] = true
		recs = append(recs, core.KV{Key: k, Value: core.Value(k ^ 0xabcd)})
	}
	sort.Sort(core.KVSlice(recs))
	return recs
}

// putOps, getOps and delOps are same-kind batches: upserts of recs, gets
// of keys and deletes of keys.
func putOps(recs []core.KV) []core.Op {
	ops := make([]core.Op, len(recs))
	for i, r := range recs {
		ops[i] = core.Op{Kind: core.OpPut, Key: r.Key, Val: r.Value}
	}
	return ops
}

func getOps(keys []core.Key) []core.Op { return keyOps(core.OpGet, keys) }
func delOps(keys []core.Key) []core.Op { return keyOps(core.OpDel, keys) }

func keyOps(kind core.OpKind, keys []core.Key) []core.Op {
	ops := make([]core.Op, len(keys))
	for i, k := range keys {
		ops[i] = core.Op{Kind: kind, Key: k}
	}
	return ops
}

// apply does ops on s and returns the answers.
func apply(s *Sharded, ops []core.Op, sp *core.Span) ([]core.Value, []bool) {
	vals, oks := make([]core.Value, len(ops)), make([]bool, len(ops))
	s.Apply(ops, vals, oks, sp)
	return vals, oks
}

// onEmpty runs fn on an empty Sharded of the given shard count, in the
// subtest "rw": these tests ran once per lock mode until the second mode
// was deleted, and keep the name the one that is left always had.
func onEmpty(t *testing.T, shards int, fn func(t *testing.T, s *Sharded)) {
	t.Helper()
	t.Run("rw", func(t *testing.T) {
		s, err := New(nil, Config{Shards: shards}, testBuilders())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, s)
	})
}

func TestRouterPartitionIsTotal(t *testing.T) {
	recs := sortedRecs(1000, 1)
	for _, n := range []int{1, 2, 3, 8, 16, 1500} {
		r := QuantileRouter(recs, n)
		if r.Shards() != max(n, 1) {
			t.Fatalf("Shards() = %d, want %d", r.Shards(), n)
		}
		parts := r.Partition(recs)
		total := 0
		for i, p := range parts {
			total += len(p)
			for _, rec := range p {
				if got := r.Route(rec.Key); got != i {
					t.Fatalf("n=%d: key %d partitioned to shard %d but routes to %d", n, rec.Key, i, got)
				}
			}
		}
		if total != len(recs) {
			t.Fatalf("n=%d: partition dropped records: %d of %d", n, total, len(recs))
		}
	}
}

func TestRouterOwnsMatchesRoute(t *testing.T) {
	routers := []Router{
		{},
		UniformRouter(4),
		NewRouter([]core.Key{0, 0, 100, 100, math.MaxUint64}),
		QuantileRouter(sortedRecs(100, 2), 8),
	}
	for ri, r := range routers {
		for i := 0; i < r.Shards(); i++ {
			lo, hi, ok := r.Owns(i)
			if !ok {
				continue
			}
			for _, k := range []core.Key{lo, hi} {
				if got := r.Route(k); got != i {
					t.Fatalf("router %d: Owns(%d)=[%d,%d] but Route(%d)=%d", ri, i, lo, hi, k, got)
				}
			}
		}
	}
}

// TestShardedDifferential replays a mixed sequential workload against a
// Sharded and a map oracle, crossing shard boundaries and the key-space
// extremes.
func TestShardedDifferential(t *testing.T) {
	recs := sortedRecs(2000, 3)
	t.Run("rw", func(t *testing.T) {
		s, err := New(recs, Config{Shards: 8}, testBuilders())
		if err != nil {
			t.Fatal(err)
		}
		oracle := make(map[core.Key]core.Value, len(recs))
		for _, r := range recs {
			oracle[r.Key] = r.Value
		}
		r := rand.New(rand.NewSource(7))
		keys := make([]core.Key, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		pick := func() core.Key {
			if r.Intn(8) == 0 {
				return []core.Key{0, 1, math.MaxUint64 - 1, math.MaxUint64}[r.Intn(4)]
			}
			return keys[r.Intn(len(keys))]
		}
		for op := 0; op < 8000; op++ {
			switch r.Intn(10) {
			case 0, 1:
				k, v := pick(), core.Value(r.Uint64())
				s.Insert(k, v)
				oracle[k] = v
			case 2:
				k := pick()
				_, want := oracle[k]
				if got := s.Delete(k); got != want {
					t.Fatalf("Delete(%d) = %v, oracle %v", k, got, want)
				}
				delete(oracle, k)
			case 3, 4, 5, 6:
				k := pick()
				gv, gok := s.Get(k)
				wv, wok := oracle[k]
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("Get(%d) = (%d, %v), oracle (%d, %v)", k, gv, gok, wv, wok)
				}
			case 7:
				if g, w := s.Len(), len(oracle); g != w {
					t.Fatalf("Len() = %d, oracle %d", g, w)
				}
			default:
				lo := pick()
				hi := lo + core.Key(r.Intn(1<<30))
				if hi < lo {
					hi = math.MaxUint64
				}
				got := s.SearchRange(lo, hi)
				if got == nil {
					t.Fatalf("SearchRange returned nil")
				}
				var want []core.KV
				for k, v := range oracle {
					if k >= lo && k <= hi {
						want = append(want, core.KV{Key: k, Value: v})
					}
				}
				sort.Sort(core.KVSlice(want))
				if len(got) != len(want) {
					t.Fatalf("SearchRange(%d,%d) yielded %d records, oracle %d", lo, hi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("SearchRange(%d,%d) record %d = %v, oracle %v", lo, hi, i, got[i], want[i])
					}
				}
			}
		}
	})
}

func TestShardedRangeEarlyStop(t *testing.T) {
	recs := sortedRecs(512, 5)
	onEmpty(t, 4, func(t *testing.T, s *Sharded) {
		for _, r := range recs {
			s.Insert(r.Key, r.Value)
		}
		for _, stop := range []int{1, 3, 100} {
			var got []core.Key
			n := s.Range(0, math.MaxUint64, func(k core.Key, v core.Value) bool {
				got = append(got, k)
				return len(got) < stop
			})
			if n != stop || len(got) != stop {
				t.Fatalf("stop=%d: visited %d records, fn saw %d", stop, n, len(got))
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("range not ascending at %d", i)
				}
			}
			if got[0] != recs[0].Key {
				t.Fatalf("range started at %d, want %d", got[0], recs[0].Key)
			}
		}
	})
}

func TestBatchedOps(t *testing.T) {
	recs := sortedRecs(1024, 9)
	onEmpty(t, 8, func(t *testing.T, s *Sharded) {
		apply(s, putOps(recs), nil)
		if g, w := s.Len(), len(recs); g != w {
			t.Fatalf("Len after a batch of puts = %d, want %d", g, w)
		}
		keys := make([]core.Key, 0, 2*len(recs))
		for _, r := range recs {
			keys = append(keys, r.Key, r.Key+1) // hit, (almost surely) miss
		}
		vals, oks := apply(s, getOps(keys), nil)
		for i, r := range recs {
			if !oks[2*i] || vals[2*i] != r.Value {
				t.Fatalf("get %d = (%d, %v), want (%d, true)", 2*i, vals[2*i], oks[2*i], r.Value)
			}
		}
		// A batch with duplicate keys: the later record wins, as with a
		// sequential upsert loop.
		dup := []core.KV{{Key: 42, Value: 1}, {Key: 42, Value: 2}, {Key: 42, Value: 3}}
		apply(s, putOps(dup), nil)
		if v, ok := s.Get(42); !ok || v != 3 {
			t.Fatalf("Get(42) = (%d, %v) after duplicate batch, want (3, true)", v, ok)
		}
	})
}

// TestApplyDuplicateKeysLastWins is the regression test for the bug the
// conform stress tier found and shrank: the RCU batch path deduped equal
// keys after an UNSTABLE sort, so with enough records in the batch the
// first of two equal-key upserts could win. A large batch of puts with
// many interleaved duplicates forces the instability.
func TestApplyDuplicateKeysLastWins(t *testing.T) {
	onEmpty(t, 4, func(t *testing.T, s *Sharded) {
		const keys, rounds = 64, 8
		batch := make([]core.KV, 0, keys*rounds)
		for round := 0; round < rounds; round++ {
			for k := 0; k < keys; k++ {
				batch = append(batch, core.KV{Key: core.Key(k) * 7919, Value: core.Value(round*keys + k)})
			}
		}
		apply(s, putOps(batch), nil)
		for k := 0; k < keys; k++ {
			want := core.Value((rounds-1)*keys + k)
			if v, ok := s.Get(core.Key(k) * 7919); !ok || v != want {
				t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k*7919, v, ok, want)
			}
		}
	})
}

func TestSearchRangeEmptyIsNonNil(t *testing.T) {
	onEmpty(t, 4, func(t *testing.T, s *Sharded) {
		for _, q := range [][2]core.Key{{0, math.MaxUint64}, {5, 10}, {10, 5}} {
			got := s.SearchRange(q[0], q[1])
			if got == nil || len(got) != 0 {
				t.Fatalf("SearchRange(%d,%d) on empty index = %#v, want empty non-nil", q[0], q[1], got)
			}
		}
		// An empty middle shard must not poison a spanning scan either.
		s.Insert(0, 1)
		s.Insert(math.MaxUint64, 2)
		got := s.SearchRange(0, math.MaxUint64)
		if len(got) != 2 || got[0].Key != 0 || got[1].Key != math.MaxUint64 {
			t.Fatalf("spanning SearchRange = %v", got)
		}
	})
}

func TestParallelBulkBuildMatchesSequentialState(t *testing.T) {
	recs := sortedRecs(4096, 11)
	s, err := New(recs, Config{Shards: 7}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := s.Len(), len(recs); g != w {
		t.Fatalf("Len = %d, want %d", g, w)
	}
	for i := 0; i < len(recs); i += 64 {
		r := recs[i]
		if v, ok := s.Get(r.Key); !ok || v != r.Value {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", r.Key, v, ok, r.Value)
		}
	}
	got := s.SearchRange(0, math.MaxUint64)
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("full scan record %d = %v, want %v", i, got[i], recs[i])
		}
	}
	if imb := s.Imbalance(); imb < 1 || imb > 1.5 {
		t.Fatalf("quantile-built imbalance = %g, want ~1", imb)
	}
}

// TestObserverCountsLockWaits drives the one route a lock wait has to
// /metrics: SetObserver hands the shards' locks a recorder, and a reader
// that arrives while a writer is inside its shard is counted there as
// contended.
func TestObserverCountsLockWaits(t *testing.T) {
	recs := sortedRecs(100, 5)
	s, err := New(recs, Config{Shards: 2}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := obs.NewMetrics("test")
	s.SetObserver(m)

	k := recs[0].Key
	sh := s.shards[s.router.Route(k)]
	sh.mu.lock() // a writer inside the shard
	read := make(chan struct{})
	go func() {
		s.Get(k)
		close(read)
	}()
	// The writer stays until the reader has had to wait: its first poll is
	// the count.
	for deadline := time.Now().Add(10 * time.Second); m.LockContended[0].Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			sh.mu.unlock()
			t.Fatal("a reader behind a writer was never counted into the observer")
		}
	}
	sh.mu.unlock()
	<-read
	w := lockWaits(m)
	if w["shard_lock_contended_read"] != 1 || w["shard_lock_contended_write"] != 0 {
		t.Fatalf("lock waits %v, want one contended read and no contended write", w)
	}
}

func TestShardedStatsAggregates(t *testing.T) {
	recs := sortedRecs(1000, 13)
	onEmpty(t, 4, func(t *testing.T, s *Sharded) {
		apply(s, putOps(recs), nil)
		st := s.Stats()
		if st.Count != len(recs) {
			t.Fatalf("Stats.Count = %d, want %d", st.Count, len(recs))
		}
		if st.Name == "" {
			t.Fatal("Stats.Name empty")
		}
	})
}

// TestConcurrentSmoke hammers a Sharded with mixed concurrent traffic; its
// assertions are weak (values belong to their keys), the point is running
// the whole surface under -race. The conform stress tier does the strong
// differential checking.
func TestConcurrentSmoke(t *testing.T) {
	workers := 8
	opsEach := 2000
	if testing.Short() {
		opsEach = 400
	}
	onEmpty(t, 4, func(t *testing.T, s *Sharded) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < opsEach; i++ {
					k := core.Key(r.Intn(4096)) * 1_000_003
					switch r.Intn(6) {
					case 0:
						s.Insert(k, core.Value(k))
					case 1:
						s.Delete(k)
					case 2:
						apply(s, putOps([]core.KV{{Key: k, Value: core.Value(k)}, {Key: k + 1_000_003, Value: core.Value(k + 1_000_003)}}), nil)
					case 3:
						if v, ok := s.Get(k); ok && v != core.Value(k) {
							t.Errorf("Get(%d) = %d", k, v)
							return
						}
					case 4:
						vals, oks := apply(s, getOps([]core.Key{k, k + 1}), nil)
						if oks[0] && vals[0] != core.Value(k) {
							t.Errorf("batch get %d = %d", k, vals[0])
							return
						}
					default:
						prev := core.Key(0)
						first := true
						s.Range(k, k+100*1_000_003, func(kk core.Key, vv core.Value) bool {
							if !first && kk <= prev {
								t.Errorf("Range not ascending: %d after %d", kk, prev)
								return false
							}
							first, prev = false, kk
							return core.Value(kk) == vv
						})
					}
				}
			}(w)
		}
		wg.Wait()
	})
}
