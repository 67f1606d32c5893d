package shard

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// Index mirrors the public one-dimensional read interface structurally
// (like internal/conform does), so this package does not depend on the
// façade's named types.
type Index interface {
	Get(k core.Key) (core.Value, bool)
	Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int
	Len() int
	Stats() core.Stats
}

// MutableIndex is an Index supporting upserts and deletes.
type MutableIndex interface {
	Index
	Insert(k core.Key, v core.Value)
	Delete(k core.Key) bool
}

// LockMode selects the per-shard concurrency scheme.
type LockMode uint8

// The lock modes.
const (
	// LockRW guards each shard's mutable index with a reader-writer lock
	// made for sub-microsecond holds (rwLock, lock.go).
	LockRW LockMode = iota
	// LockRCU keeps each shard as an immutable snapshot plus two delta
	// overlays behind atomic pointers: reads load the pointers and never
	// touch a lock, writers serialize per shard and append to a bounded
	// delta, and a background goroutine folds the delta into a fresh
	// snapshot. Whatever a reader still holds is kept alive by the garbage
	// collector; nothing published is ever written again.
	LockRCU
)

func (m LockMode) String() string {
	switch m {
	case LockRW:
		return "rw"
	case LockRCU:
		return "rcu"
	}
	return fmt.Sprintf("LockMode(%d)", uint8(m))
}

// DefaultDeltaCap is the LockRCU sorted-delta size that schedules a
// background snapshot merge when Config.DeltaCap is zero.
const DefaultDeltaCap = 1024

// DefaultDeltaBoundFactor sets Config.DeltaBound to this multiple of
// DeltaCap when zero: writers may run ahead of an in-flight merge by up
// to factor× the merge trigger before backpressure blocks them.
const DefaultDeltaBoundFactor = 4

// Config sizes a Sharded instance.
type Config struct {
	// Shards is the shard count (default 8).
	Shards int
	// Mode selects the per-shard concurrency scheme (default LockRW).
	Mode LockMode
	// DeltaCap is the per-shard sorted-delta size that schedules a
	// background RCU snapshot merge (LockRCU only; 0 selects
	// DefaultDeltaCap).
	DeltaCap int
	// DeltaBound is the hard per-shard sorted-delta size: a writer about
	// to grow the delta past it while a merge is in flight blocks until
	// the merge completes (LockRCU only; 0 selects
	// DefaultDeltaBoundFactor×DeltaCap, values below DeltaCap are raised
	// to DeltaCap).
	DeltaBound int
	// MetricsPrefix, when non-empty, attaches one obs.Metrics bundle per
	// shard named "<prefix>-shard<i>"; per-op counters (exact) and
	// latency histograms (point ops as a 1-in-obs.SampleEvery sample) are
	// recorded into the owning shard's bundle and structural events (RCU
	// swaps) are routed there too.
	MetricsPrefix string
}

// Builders supplies the per-shard index constructors. LockRW requires New
// (Bulk optional, used for bulk builds); LockRCU requires Static.
type Builders struct {
	// New returns an empty mutable shard backend (LockRW).
	New func() (MutableIndex, error)
	// Bulk builds a mutable shard backend over sorted records (LockRW);
	// nil falls back to New plus per-record inserts.
	Bulk func(recs []core.KV) (MutableIndex, error)
	// Static builds an immutable RCU snapshot over sorted records
	// (LockRCU). It must accept an empty record set.
	Static func(recs []core.KV) (Index, error)
}

// shardOps is what one shard does, whatever its lock mode: Sharded routes
// a key (or cuts a batch into runs, batch.go) and calls these. rwShard
// (rw.go) and rcuShard (rcu.go) are the two implementations.
type shardOps interface {
	get(k core.Key) (core.Value, bool)
	insert(k core.Key, v core.Value)
	delete(k core.Key) bool

	// The run methods do one run of a batch (see run) under a single
	// lock hold, in the run's order. lookupRun returns the hit count;
	// deleteRun reports per position whether the key was live when its
	// turn came.
	lookupRun(keys []core.Key, r run, vals []core.Value, oks []bool) (hits int)
	insertRun(recs []core.KV, r run)
	deleteRun(keys []core.Key, r run, oks []bool)

	rangeScan(lo, hi core.Key, fn func(core.Key, core.Value) bool) int
	len() int
	stats() core.Stats
	close() error

	// The merge pipeline's gauges and drain; zero and a no-op on a shard
	// that has no delta (LockRW).
	deltaLen() int
	deltaCeiling() int
	mergeCounts() (swaps, stalls uint64)
	waitMerges()
}

// Sharded is the range-partitioned concurrent front-end. All methods are
// safe for concurrent use.
type Sharded struct {
	mode   LockMode
	router Router
	shards []shardOps
	hook   obs.Hook // external recorder for structural events
	mets   []*obs.Metrics

	// fanoutMin is batchParallelMin; the allocation tests lower it to put
	// small batches through the fan-out regime.
	fanoutMin int
	// scratch pools *batchScratch, the fan-out regime's workspace.
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
	if cfg.DeltaCap <= 0 {
		cfg.DeltaCap = DefaultDeltaCap
	}
	if cfg.DeltaBound <= 0 {
		cfg.DeltaBound = DefaultDeltaBoundFactor * cfg.DeltaCap
	}
	if cfg.DeltaBound < cfg.DeltaCap {
		cfg.DeltaBound = cfg.DeltaCap
	}
	switch cfg.Mode {
	case LockRW:
		if b.New == nil && b.Bulk == nil {
			return nil, fmt.Errorf("shard: LockRW requires Builders.New or Builders.Bulk")
		}
	case LockRCU:
		if b.Static == nil {
			return nil, fmt.Errorf("shard: LockRCU requires Builders.Static")
		}
	default:
		return nil, fmt.Errorf("shard: unknown lock mode %v", cfg.Mode)
	}
	router := QuantileRouter(recs, cfg.Shards)
	if err := router.validate(); err != nil {
		return nil, err
	}
	s := &Sharded{
		mode: cfg.Mode, router: router, fanoutMin: batchParallelMin,
		shards: make([]shardOps, cfg.Shards),
	}
	if cfg.MetricsPrefix != "" {
		s.mets = make([]*obs.Metrics, cfg.Shards)
		for i := range s.mets {
			s.mets[i] = obs.NewMetrics(fmt.Sprintf("%s-shard%d", cfg.MetricsPrefix, i))
		}
	}
	parts := router.Partition(recs)

	// Parallel bulk build: one goroutine per shard, errgroup-style join.
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cfg.Mode == LockRW {
				s.shards[i], errs[i] = newRWShard(parts[i], b, s.lockWaited(i))
			} else {
				s.shards[i], errs[i] = newRCUShard(parts[i], cfg, b.Static, s, i)
			}
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

// SetObserver routes structural events (RCU snapshot swaps, labeled with
// the emitting shard) into r, and the LockRW locks' slow acquires when r
// is an obs.LockRecorder, as *obs.Metrics is; nil detaches.
func (s *Sharded) SetObserver(r obs.Recorder) { s.hook.SetRecorder(r) }

// lockWaited returns shard si's rwLock.waited: slow acquires are counted
// into the shard's own bundle and into the observer. Nothing on an
// uncontended acquire comes here.
func (s *Sharded) lockWaited(si int) func(write, blocked bool) {
	return func(write, blocked bool) {
		if s.mets != nil {
			s.mets[si].RecordLockWait(write, blocked)
		}
		if r, ok := s.hook.Recorder().(obs.LockRecorder); ok {
			r.RecordLockWait(write, blocked)
		}
	}
}

// ShardMetrics returns the per-shard metrics bundles, nil unless
// Config.MetricsPrefix was set.
func (s *Sharded) ShardMetrics() []*obs.Metrics { return s.mets }

// Mode returns the configured lock mode.
func (s *Sharded) Mode() LockMode { return s.mode }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Router returns the key→shard router.
func (s *Sharded) Router() Router { return s.router }

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

// Get returns the value stored for k.
func (s *Sharded) Get(k core.Key) (core.Value, bool) {
	si := s.router.Route(k)
	if s.mets == nil {
		return s.shards[si].get(k)
	}
	m := s.mets[si]
	t := m.Lookups.IncSampled()
	v, ok := s.shards[si].get(k)
	t.Observe(&m.GetNS)
	if ok {
		m.Hits.Inc()
	}
	return v, ok
}

// Insert upserts (k, v).
func (s *Sharded) Insert(k core.Key, v core.Value) {
	si := s.router.Route(k)
	if s.mets == nil {
		s.shards[si].insert(k, v)
		return
	}
	m := s.mets[si]
	t := m.Inserts.IncSampled()
	s.shards[si].insert(k, v)
	t.Observe(&m.InsertNS)
}

// Delete removes k, reporting whether it was present.
func (s *Sharded) Delete(k core.Key) bool {
	si := s.router.Route(k)
	if s.mets == nil {
		return s.shards[si].delete(k)
	}
	m := s.mets[si]
	t := m.Deletes.IncSampled()
	ok := s.shards[si].delete(k)
	t.Observe(&m.DeleteNS)
	return ok
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

// RCUSwaps returns the total number of snapshot swaps across shards (0 in
// LockRW mode).
func (s *Sharded) RCUSwaps() uint64 {
	var n uint64
	for _, sh := range s.shards {
		swaps, _ := sh.mergeCounts()
		n += swaps
	}
	return n
}

// RCUStalls returns the total number of writer backpressure waits — times
// a writer blocked because the active delta hit DeltaBound while a merge
// was in flight (0 in LockRW mode).
func (s *Sharded) RCUStalls() uint64 {
	var n uint64
	for _, sh := range s.shards {
		_, stalls := sh.mergeCounts()
		n += stalls
	}
	return n
}

// DeltaLen returns the record count currently overlaying RCU shard i's
// snapshot (active + frozen, sorted + tail); 0 in LockRW mode.
func (s *Sharded) DeltaLen(i int) int { return s.shards[i].deltaLen() }

// DeltaCeiling returns the guaranteed upper bound on any single delta
// level's overlay under write saturation: DeltaBound plus the append
// tail size (0 in LockRW mode). The conform stress tier asserts DeltaLen
// never exceeds twice this (active + frozen each obey it).
func (s *Sharded) DeltaCeiling() int { return s.shards[0].deltaCeiling() }

// WaitMerges blocks until every RCU shard has drained its merge
// pipeline: in-flight background merges complete and cap-exceeding
// active deltas are merged too. A no-op in LockRW mode. Intended for
// tests and benchmarks that need deterministic swap counts; with
// concurrent writers the pipeline may refill immediately.
func (s *Sharded) WaitMerges() {
	for _, sh := range s.shards {
		sh.waitMerges()
	}
}

// Stats aggregates the per-shard structure statistics.
func (s *Sharded) Stats() core.Stats {
	agg := core.Stats{Name: fmt.Sprintf("sharded-%s(%d)", s.mode, s.Shards())}
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
	var start time.Time
	if s.mets != nil {
		start = time.Now()
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
	if s.mets != nil {
		m := s.mets[first]
		m.RangeNS.Observe(uint64(time.Since(start)))
		m.RangeLen.Observe(uint64(count))
		m.Ranges.Inc()
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

// Close drains in-flight background merges, then forwards Close to every
// shard backend with the io.Closer capability, returning the first
// error. Shard backends are in-memory today, so the backend half is
// usually a no-op, but the capability must survive the wrapper for
// stacks built over closeable backends.
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
