package shard

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// The index surfaces a shard serves.
type (
	Index        = core.Index
	MutableIndex = core.MutableIndex
)

// Config sizes a Sharded instance.
type Config struct {
	// Shards is the shard count (default 8).
	Shards int
}

// Builders supplies the per-shard index constructors; at least one is
// required.
type Builders struct {
	// New returns an empty mutable shard backend.
	New func() (MutableIndex, error)
	// Bulk builds a mutable shard backend over sorted records; nil falls
	// back to New plus per-record inserts.
	Bulk func(recs []core.KV) (MutableIndex, error)
}

// Sharded is the range-partitioned concurrent front-end. All methods are
// safe for concurrent use.
type Sharded struct {
	router Router
	shards []*rwShard
	hook   obs.Hook // the observer the locks' slow acquires are counted into

	// fanoutMin is batchParallelMin; the allocation tests lower it to put
	// small batches through the fan-out regime.
	fanoutMin int
	// scratch pools *batchScratch, the batch driver's workspace.
	scratch sync.Pool
}

// New builds a Sharded over recs (sorted ascending, distinct keys; may be
// empty). The router splits at the record quantiles when records are
// available, else uniformly over the key space. Shards build in parallel,
// one goroutine per shard, and the first builder error aborts the join.
func New(recs []core.KV, cfg Config, b Builders) (*Sharded, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if b.New == nil && b.Bulk == nil {
		return nil, fmt.Errorf("shard: Builders.New or Builders.Bulk is required")
	}
	router := QuantileRouter(recs, cfg.Shards)
	if err := router.validate(); err != nil {
		return nil, err
	}
	s := &Sharded{
		router: router, fanoutMin: batchParallelMin,
		shards: make([]*rwShard, cfg.Shards),
	}
	parts := router.Partition(recs)

	// Parallel bulk build: one goroutine per shard, errgroup-style join.
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.shards[i], errs[i] = newRWShard(parts[i], b, s.lockWaited)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetObserver routes the shard locks' slow acquires into r when it is an
// obs.LockRecorder, as *obs.Metrics is (nothing else of this layer reaches
// an observer); nil detaches.
func (s *Sharded) SetObserver(r obs.Recorder) { s.hook.SetRecorder(r) }

// lockWaited is every shard's rwLock.waited: slow acquires are counted
// into the observer. Nothing on an uncontended acquire comes here.
func (s *Sharded) lockWaited(write, blocked bool) {
	if r, ok := s.hook.Recorder().(obs.LockRecorder); ok {
		r.RecordLockWait(write, blocked)
	}
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Router returns the key→shard router.
func (s *Sharded) Router() Router { return s.router }

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

// Get returns the value stored for k.
func (s *Sharded) Get(k core.Key) (core.Value, bool) {
	return s.shards[s.router.Route(k)].get(k)
}

// Insert upserts (k, v).
func (s *Sharded) Insert(k core.Key, v core.Value) {
	s.shards[s.router.Route(k)].insert(k, v)
}

// Delete removes k, reporting whether it was present.
func (s *Sharded) Delete(k core.Key) bool {
	return s.shards[s.router.Route(k)].delete(k)
}

// Len returns the number of records across all shards.
func (s *Sharded) Len() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.len()
	}
	return total
}

// ShardLen returns the number of records in shard i.
func (s *Sharded) ShardLen(i int) int { return s.shards[i].len() }

// Imbalance is the shard-imbalance gauge: the largest shard's share of the
// records divided by the ideal equal share (1 = perfectly balanced,
// Shards() = everything on one shard, 0 = empty index).
func (s *Sharded) Imbalance() float64 {
	total, max := 0, 0
	for _, sh := range s.shards {
		n := sh.len()
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(s.Shards()) / float64(total)
}

// Stats aggregates the per-shard structure statistics.
func (s *Sharded) Stats() core.Stats {
	agg := core.Stats{Name: fmt.Sprintf("sharded-rw(%d)", s.Shards())}
	for _, sh := range s.shards {
		st := sh.stats()
		agg.Count += st.Count
		agg.IndexBytes += st.IndexBytes
		agg.DataBytes += st.DataBytes
		agg.Models += st.Models
		if st.Height > agg.Height {
			agg.Height = st.Height
		}
	}
	return agg
}

// ---------------------------------------------------------------------------
// Range operations
// ---------------------------------------------------------------------------

// Range calls fn for every record with lo <= key <= hi in ascending order,
// visiting the covered shards in shard order (which is key order); fn
// returning false stops the scan. It returns the number of records
// visited.
func (s *Sharded) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	if lo > hi {
		return 0
	}
	first, last := s.router.Route(lo), s.router.Route(hi)
	count, stopped := 0, false
	for si := first; si <= last && !stopped; si++ {
		count += s.shards[si].rangeScan(lo, hi, func(k core.Key, v core.Value) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
	}
	return count
}

// SearchRange collects every record with lo <= key <= hi, fanning the scan
// out across the covered shards in parallel (on multi-core hosts) and
// concatenating the per-shard results in shard order (range partitioning
// makes concatenation the ordered merge). The result is always non-nil:
// an empty index, an empty shard or an empty interval all yield an empty
// slice, pinning the façade-wide empty-slice normalization.
func (s *Sharded) SearchRange(lo, hi core.Key) []core.KV {
	out := []core.KV{}
	if lo > hi {
		return out
	}
	first, last := s.router.Route(lo), s.router.Route(hi)
	if first == last || runtime.GOMAXPROCS(0) == 1 {
		for si := first; si <= last; si++ {
			s.shards[si].rangeScan(lo, hi, func(k core.Key, v core.Value) bool {
				out = append(out, core.KV{Key: k, Value: v})
				return true
			})
		}
		return out
	}
	parts := make([][]core.KV, last-first+1)
	var wg sync.WaitGroup
	for si := first; si <= last; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var part []core.KV
			s.shards[si].rangeScan(lo, hi, func(k core.Key, v core.Value) bool {
				part = append(part, core.KV{Key: k, Value: v})
				return true
			})
			parts[si-first] = part
		}(si)
	}
	wg.Wait()
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Close forwards Close to every shard backend with the io.Closer
// capability, returning the first error. Shard backends are in-memory
// today, so this is usually a no-op, but the capability must survive the
// wrapper for stacks built over closeable backends.
func (s *Sharded) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func closeIndex(ix Index) error {
	if c, ok := ix.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
