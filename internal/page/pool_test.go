package page

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// pagedIndex is the common surface of both paged kinds, letting the
// correctness sweeps run against either.
type pagedIndex interface {
	Insert(core.Key, core.Value)
	Delete(core.Key) bool
	Get(core.Key) (core.Value, bool)
	Range(core.Key, core.Key, func(core.Key, core.Value) bool) int
	Len() int
	Stats() core.Stats
	PoolStats() PoolStats
	CheckInvariants() error
	Close() error
}

func newPagedIndexes(t *testing.T, o Options) map[string]pagedIndex {
	t.Helper()
	bt, err := NewTempIndex(KindBTree, o)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewTempIndex(KindPGM, o)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]pagedIndex{KindBTree: bt, KindPGM: pg}
}

// TestEvictionCorrectness is the acceptance gate for the buffer pool: both
// paged kinds run a mixed workload with a frame budget far below the data
// size, evictions must actually happen, and every result must still match
// an in-memory oracle.
func TestEvictionCorrectness(t *testing.T) {
	const n = 6000
	for name, ix := range newPagedIndexes(t, Options{PoolFrames: 8}) {
		t.Run(name, func(t *testing.T) {
			defer ix.Close()
			rng := rand.New(rand.NewSource(7))
			oracle := make(map[core.Key]core.Value, n)
			perm := rng.Perm(n)
			for _, i := range perm {
				k := core.Key(i * 3)
				v := core.Value(i)
				ix.Insert(k, v)
				oracle[k] = v
			}
			// Delete a scattered third, overwrite another scattered third.
			for i := 0; i < n; i += 3 {
				k := core.Key(i * 3)
				if ix.Delete(k) != true {
					t.Fatalf("delete(%d) = false", k)
				}
				delete(oracle, k)
			}
			for i := 1; i < n; i += 3 {
				k := core.Key(i * 3)
				ix.Insert(k, core.Value(i)+1000000)
				oracle[k] = core.Value(i) + 1000000
			}

			st := ix.PoolStats()
			if st.Evictions == 0 {
				t.Fatalf("no evictions with %d frames over %d records (pool stats %+v)", st.Frames, n, st)
			}
			if ix.Len() != len(oracle) {
				t.Fatalf("Len = %d, oracle %d", ix.Len(), len(oracle))
			}
			// Every present key reads back; deleted and absent keys miss.
			for i := 0; i < n; i++ {
				k := core.Key(i * 3)
				v, ok := ix.Get(k)
				want, wantOK := oracle[k]
				if ok != wantOK || (ok && v != want) {
					t.Fatalf("Get(%d) = (%d,%v), oracle (%d,%v)", k, v, ok, want, wantOK)
				}
				if _, ok := ix.Get(k + 1); ok {
					t.Fatalf("Get(%d) found a never-inserted key", k+1)
				}
			}
			// A full range scan returns the oracle in order.
			var got int
			var last core.Key
			ix.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
				if got > 0 && k <= last {
					t.Fatalf("range out of order: %d after %d", k, last)
				}
				if want, ok := oracle[k]; !ok || v != want {
					t.Fatalf("range visited (%d,%d), oracle (%d,%v)", k, v, want, ok)
				}
				last = k
				got++
				return true
			})
			if got != len(oracle) {
				t.Fatalf("range visited %d records, oracle %d", got, len(oracle))
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBulkMatchesInsertLoop pins the bulk path against the insert path.
func TestBulkMatchesInsertLoop(t *testing.T) {
	const n = 3000
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i*7 + 1), Value: core.Value(i)}
	}
	dir := t.TempDir()
	bt, err := BulkIndex(filepath.Join(dir, "bt.lpx"), KindBTree, recs, Options{PoolFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	pg, err := BulkIndex(filepath.Join(dir, "pg.lpx"), KindPGM, recs, Options{PoolFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	for name, ix := range map[string]pagedIndex{KindBTree: bt, KindPGM: pg} {
		if ix.Len() != n {
			t.Fatalf("%s: Len = %d", name, ix.Len())
		}
		for _, r := range recs {
			if v, ok := ix.Get(r.Key); !ok || v != r.Value {
				t.Fatalf("%s: Get(%d) = (%d,%v)", name, r.Key, v, ok)
			}
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Bulk over an eviction-sized pool still had to spill pages.
		if st := ix.PoolStats(); st.Evictions == 0 {
			t.Fatalf("%s: bulk load of %d records evicted nothing: %+v", name, n, st)
		}
	}
}

// TestReopen round-trips both kinds through Close/Open and verifies the
// reopened index serves identical content from a cold pool.
func TestReopen(t *testing.T) {
	const n = 2500
	dir := t.TempDir()
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i * 5), Value: core.Value(i)}
	}
	build := map[string]func(path string) (pagedIndex, error){
		KindBTree: func(path string) (pagedIndex, error) { return BulkIndex(path, KindBTree, recs, Options{}) },
		KindPGM:   func(path string) (pagedIndex, error) { return BulkIndex(path, KindPGM, recs, Options{}) },
	}
	open := map[string]func(path string) (pagedIndex, error){
		KindBTree: func(path string) (pagedIndex, error) { return OpenIndex(path, KindBTree, Options{PoolFrames: 8}) },
		KindPGM:   func(path string) (pagedIndex, error) { return OpenIndex(path, KindPGM, Options{PoolFrames: 8}) },
	}
	for name := range build {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".lpx")
			ix, err := build[name](path)
			if err != nil {
				t.Fatal(err)
			}
			// Mutate after the bulk so the reopened state covers splits and
			// deletes, not just the packed load.
			for i := 0; i < 500; i++ {
				ix.Insert(core.Key(i*5+1), core.Value(i)+7)
			}
			for i := 0; i < 300; i++ {
				ix.Delete(core.Key(i * 5))
			}
			wantLen := ix.Len()
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := open[name](path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != wantLen {
				t.Fatalf("reopened Len = %d, want %d", re.Len(), wantLen)
			}
			for i := 0; i < n; i++ {
				k := core.Key(i * 5)
				v, ok := re.Get(k)
				if i < 300 {
					if ok {
						t.Fatalf("deleted key %d resurrected as %d", k, v)
					}
				} else if !ok || v != core.Value(i) {
					t.Fatalf("Get(%d) = (%d,%v) after reopen", k, v, ok)
				}
			}
			for i := 0; i < 500; i++ {
				if v, ok := re.Get(core.Key(i*5 + 1)); !ok || v != core.Value(i)+7 {
					t.Fatalf("post-bulk insert %d lost after reopen (%d,%v)", i*5+1, v, ok)
				}
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPoolAllPinnedFails(t *testing.T) {
	f, err := Create(filepath.Join(t.TempDir(), "x.lpx"), 0, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool := NewPool(f, 4)
	var frames []*Frame
	for i := 0; i < 4; i++ {
		fr, err := pool.Alloc(TypeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	if _, err := pool.Alloc(TypeLeaf); err == nil {
		t.Fatal("Alloc succeeded with every frame pinned")
	}
	pool.Unpin(frames[0], false)
	if _, err := pool.Alloc(TypeLeaf); err != nil {
		t.Fatalf("Alloc failed after an unpin: %v", err)
	}
}

// TestObserverWiring checks the obs plumbing end to end: hit/miss counters
// through the PageRecorder extension, evictions and write-backs as events.
func TestObserverWiring(t *testing.T) {
	m := obs.NewMetrics("paged")
	bt, err := NewTempIndex(KindBTree, Options{PoolFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	bt.SetObserver(m)
	for i := 0; i < 4000; i++ {
		bt.Insert(core.Key(i), core.Value(i))
	}
	for i := 0; i < 4000; i += 100 {
		bt.Get(core.Key(i))
	}
	if m.PageHits.Load() == 0 || m.PageMisses.Load() == 0 {
		t.Fatalf("page counters not recorded: hits=%d misses=%d", m.PageHits.Load(), m.PageMisses.Load())
	}
	if m.Events.Count(obs.EvPageEvict) == 0 {
		t.Fatal("no page_evict events")
	}
	if m.Events.Count(obs.EvPageFlush) == 0 {
		t.Fatal("no page_flush events")
	}
	if m.Events.Count(obs.EvNodeSplit) == 0 {
		t.Fatal("no node_split events")
	}
	st := bt.PoolStats()
	if st.Hits != m.PageHits.Load() || st.Misses != m.PageMisses.Load() {
		t.Fatalf("pool stats diverge from metrics: %+v vs hits=%d misses=%d",
			st, m.PageHits.Load(), m.PageMisses.Load())
	}
}

// TestConcurrentReaders hammers a tiny pool with parallel lookups so the
// race detector sees the miss path's deferred table publish: a concurrent
// Get must never observe a half-loaded frame.
func TestConcurrentReaders(t *testing.T) {
	const n = 4000
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i * 3), Value: core.Value(i)}
	}
	for name, mk := range map[string]func(string) (pagedIndex, error){
		KindBTree: func(p string) (pagedIndex, error) { return BulkIndex(p, KindBTree, recs, Options{PoolFrames: 8}) },
		KindPGM:   func(p string) (pagedIndex, error) { return BulkIndex(p, KindPGM, recs, Options{PoolFrames: 8}) },
	} {
		t.Run(name, func(t *testing.T) {
			ix, err := mk(filepath.Join(t.TempDir(), "c.lpx"))
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for op := 0; op < 2000; op++ {
						i := rng.Intn(n)
						if v, ok := ix.Get(core.Key(i * 3)); !ok || v != core.Value(i) {
							t.Errorf("Get(%d) = (%d,%v), want (%d,true)", i*3, v, ok, i)
							return
						}
					}
				}(int64(g))
			}
			wg.Wait()
		})
	}
}

// TestPGMRetrains checks that the learned layer actually retrains as the
// fence array grows, and that huge keys (float64-adjacent) stay correct.
func TestPGMRetrains(t *testing.T) {
	m := obs.NewMetrics("pgm")
	pg, err := NewTempIndex(KindPGM, Options{PoolFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	pg.SetObserver(m)
	const n = 60000
	for i := 0; i < n; i++ {
		pg.Insert(core.Key(i)*2, core.Value(i))
	}
	if m.Events.Count(obs.EvRetrain) == 0 {
		t.Fatal("PGM never retrained over 60k inserts")
	}
	if st := pg.Stats(); st.Models == 0 {
		t.Fatalf("no segments after %d inserts: %+v", n, st)
	}
	for i := 0; i < n; i += 37 {
		if v, ok := pg.Get(core.Key(i) * 2); !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = (%d,%v)", i*2, v, ok)
		}
	}

	// Keys near 2^64 collapse to equal float64s; the verified fallback
	// must keep exact-integer correctness regardless of the model.
	huge, err := NewTempIndex(KindPGM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer huge.Close()
	base := ^core.Key(0) - 200000
	for i := 0; i < 100000; i++ {
		huge.Insert(base+core.Key(i), core.Value(i))
	}
	for i := 0; i < 100000; i += 53 {
		if v, ok := huge.Get(base + core.Key(i)); !ok || v != core.Value(i) {
			t.Fatalf("huge-key Get(%d) = (%d,%v), want %d", base+core.Key(i), v, ok, i)
		}
	}
	if err := huge.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPGMRetrainsOnBalancedChurn: the fence model retrains on fence
// insertions plus removals, not on their net. Fifty rounds that each empty
// one low leaf and split one high leaf leave the fence count where it
// started; the model must still retrain, and after every round each
// fence's lower bound must lie inside the window the model predicts, so
// no fence lookup falls back to a full binary search.
func TestPGMRetrainsOnBalancedChurn(t *testing.T) {
	per := LeafCap(DefaultPageSize)
	recs := make([]core.KV, 400*per)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i) * 1000, Value: core.Value(i)}
	}
	ix, err := BulkIndex(filepath.Join(t.TempDir(), "churn.lpx"), KindPGM, recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	m := obs.NewMetrics("churn")
	ix.SetObserver(m)
	f := ix.Fences()
	fallbacks := 0
	for round := 0; round < 50; round++ {
		for _, r := range recs[(round+1)*per : (round+2)*per] {
			if !ix.Delete(r.Key) {
				t.Fatalf("Delete(%d) = false", r.Key)
			}
		}
		ix.Insert(recs[(399-round)*per].Key+1, 0) // into a full leaf
		keys := f.Keys()
		if len(keys) != 400 {
			t.Fatalf("round %d: %d fences, want 400", round, len(keys))
		}
		for _, k := range keys {
			lo, hi := f.Window(k)
			if i := core.LowerBound(keys, k); i < lo || i > hi {
				fallbacks++
			}
		}
	}
	if n := m.Events.Count(obs.EvRetrain); n == 0 || fallbacks > 0 {
		t.Fatalf("%d retrains and %d fence lookups outside the model's window over 50 rounds", n, fallbacks)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
