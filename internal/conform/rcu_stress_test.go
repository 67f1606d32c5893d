package conform

import (
	"sync"
	"sync/atomic"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// Sustained-write stress for the RCU shard mode: a saturating writer
// outruns the background merge so the delta-bound backpressure engages,
// while readers spin through the whole run. The tier asserts the two
// properties the paced-merge design promises:
//
//   - reader liveness: no preloaded key ever reads as missing, and the
//     values a reader observes for one key never go backwards;
//   - bounded deltas: DeltaLen never exceeds twice DeltaCeiling, and the
//     writer actually stalled (RCUStalls > 0) — i.e. the bound engaged
//     rather than the delta growing without limit.
//
// Run under -race this also checks that no published buffer is ever
// reused: a snapshot array or delta run written again while a reader
// still held it would be flagged as a write/read pair.

func rcuStressPreload(n int) []core.KV {
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(2*i + 1), Value: 0}
	}
	return recs
}

func TestRCUSustainedWriteBackpressure(t *testing.T) {
	n, writes := 20_000, 10_000
	if testing.Short() {
		n, writes = 4_000, 3_000
	}
	recs := rcuStressPreload(n)
	// A large preload with a small cap and bound: each merge rebuilds the
	// whole snapshot, so the writer reaches the bound while one is still
	// in flight and must stall.
	s, err := lix.NewSharded(recs, lix.ShardedConfig{
		Shards: 2, Mode: lix.ShardRCU, DeltaCap: 128, DeltaBound: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var fail atomic.Bool
	var wg sync.WaitGroup

	// Readers: liveness plus per-key monotonicity over a sampled window.
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[core.Key]core.Value, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := recs[(i*131+r*17)%len(recs)].Key
				v, ok := s.Get(k)
				if !ok {
					t.Errorf("reader %d: preloaded key %d missing", r, k)
					fail.Store(true)
					return
				}
				if i%131 < 64 {
					if prev, seen := last[k]; seen && v < prev {
						t.Errorf("reader %d: key %d went backwards: %d then %d", r, k, prev, v)
						fail.Store(true)
						return
					}
					last[k] = v
				}
			}
		}()
	}

	// Sampler: the delta bound must actually bound.
	ceiling := s.DeltaCeiling()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 2; i++ {
				if dl := s.DeltaLen(i); dl > 2*ceiling {
					t.Errorf("shard %d delta grew to %d, ceiling %d", i, dl, ceiling)
					fail.Store(true)
					return
				}
			}
		}
	}()

	// The saturating writer: monotone upserts over the preloaded keys.
	for i := 1; i <= writes && !fail.Load(); i++ {
		s.Insert(recs[i%len(recs)].Key, core.Value(i))
	}
	s.WaitMerges()
	close(stop)
	wg.Wait()
	if fail.Load() {
		t.FailNow()
	}

	if s.RCUStalls() == 0 {
		t.Error("writer never stalled: delta-bound backpressure did not engage")
	}
	if s.RCUSwaps() == 0 {
		t.Error("no background merges completed")
	}
	// The surviving state must be exactly the last write per key: within
	// any window of len(recs) consecutive write indexes each key appears
	// once, so every i in the final window is its key's last write.
	start := writes - len(recs) + 1
	if start < 1 {
		start = 1
	}
	for i := start; i <= writes; i++ {
		k := recs[i%len(recs)].Key
		v, ok := s.Get(k)
		if !ok || v != core.Value(i) {
			t.Fatalf("key %d = (%d, %v) after drain, want (%d, true)", k, v, ok, i)
		}
	}
}

// TestRCUScanDuringMergeChurn runs long range scans (each over the
// layers it loaded at entry, for its whole traversal) while a writer
// churns snapshot merges underneath. If a superseded snapshot were
// reused while a scan still referenced it, the scan would observe
// unsorted or duplicated keys — and under -race, the merge goroutine's
// writes into the reused buffer would race with the scan's reads.
func TestRCUScanDuringMergeChurn(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 5_000
	}
	recs := rcuStressPreload(n)
	s, err := lix.NewSharded(recs, lix.ShardedConfig{
		Shards: 2, Mode: lix.ShardRCU, DeltaCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	lo, hi := recs[0].Key, recs[len(recs)-1].Key
	stop := make(chan struct{})
	var fail atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				out := s.SearchRange(lo, hi)
				if len(out) < n {
					t.Errorf("scan returned %d records, preload was %d", len(out), n)
					fail.Store(true)
					return
				}
				for i := 1; i < len(out); i++ {
					if out[i].Key <= out[i-1].Key {
						t.Errorf("scan out of order at %d: %d after %d", i, out[i].Key, out[i-1].Key)
						fail.Store(true)
						return
					}
				}
			}
		}()
	}
	// Churn: interleave fresh even keys (growing the snapshot) with
	// upserts so merges retire both snapshot arrays and delta runs.
	for i := 0; i < 8_000 && !fail.Load(); i++ {
		if i%2 == 0 {
			s.Insert(core.Key(2*(i%n)+2), core.Value(i))
		} else {
			s.Insert(recs[i%n].Key, core.Value(i))
		}
	}
	s.WaitMerges()
	close(stop)
	wg.Wait()
	if fail.Load() {
		t.FailNow()
	}
	if s.RCUSwaps() == 0 {
		t.Error("no background merges completed during churn")
	}
}
