package shard

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
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
	// LockRW guards each shard's mutable index with a sync.RWMutex.
	LockRW LockMode = iota
	// LockRCU keeps each shard as an immutable snapshot plus two delta
	// overlays behind atomic pointers: reads pin an epoch and never touch
	// a lock, writers serialize per shard and append to a bounded delta,
	// and a background goroutine folds the delta into a fresh snapshot.
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

// Sharded is the range-partitioned concurrent front-end. All methods are
// safe for concurrent use.
type Sharded struct {
	mode   LockMode
	router Router
	rw     []*rwShard
	rcu    []*rcuShard
	hook   obs.Hook // external recorder for structural events
	mets   []*obs.Metrics

	// epoch is the reclamation domain shared by all RCU shards: one pin
	// covers a whole cross-shard batch (epoch.go).
	epoch epochDomain

	// Buffer pools. scratch holds *batchScratch group buffers reused
	// across batched calls; drecs and recs recycle delta and snapshot
	// buffers handed back by the epoch domain.
	scratch sync.Pool
	drecs   sync.Pool
	recs    sync.Pool
}

// rwShard is one LockRW shard.
type rwShard struct {
	mu sync.RWMutex
	ix MutableIndex
}

// snapshot is the immutable read side of one LockRCU shard: the sorted
// records and a read-optimized index built over them. recs is never
// mutated after publication. owned marks recs as pool-recyclable — the
// initial snapshot borrows the caller's bulk-build slice and must never
// be recycled into a write target.
type snapshot struct {
	recs  []core.KV
	ix    Index
	owned bool
}

// deltaRec is one delta entry; del marks a tombstone.
type deltaRec struct {
	key core.Key
	val core.Value
	del bool
}

// rcuShard is one LockRCU shard. Readers pin the parent epoch domain and
// load active → frozen → snap (all atomic, lock-free); writers serialize
// on mu and append into the active delta's tail; background merges fold
// frozen into a new snapshot (rcu.go).
type rcuShard struct {
	snap   atomic.Pointer[snapshot]
	active atomic.Pointer[delta]
	frozen atomic.Pointer[delta]
	size   atomic.Int64

	mu        sync.Mutex
	mergeCond *sync.Cond // signaled when a background merge finishes
	merging   bool
	closed    bool

	cap    int // sorted-delta size that schedules a background merge
	bound  int // sorted-delta size at which writers block (backpressure)
	build  func(recs []core.KV) (Index, error)
	swaps  atomic.Uint64
	stalls atomic.Uint64 // writer backpressure waits, for tests/stats
	parent *Sharded
	id     int
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
	s := &Sharded{mode: cfg.Mode, router: router}
	if cfg.MetricsPrefix != "" {
		s.mets = make([]*obs.Metrics, cfg.Shards)
		for i := range s.mets {
			s.mets[i] = obs.NewMetrics(fmt.Sprintf("%s-shard%d", cfg.MetricsPrefix, i))
		}
	}
	parts := router.Partition(recs)
	tail := tailCap(cfg.DeltaCap)

	// Parallel bulk build: one goroutine per shard, errgroup-style join.
	built := make([]any, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			part := parts[i]
			switch cfg.Mode {
			case LockRW:
				var ix MutableIndex
				var err error
				if b.Bulk != nil {
					ix, err = b.Bulk(part)
				} else {
					ix, err = b.New()
					if err == nil {
						for _, r := range part {
							ix.Insert(r.Key, r.Value)
						}
					}
				}
				built[i], errs[i] = ix, err
			case LockRCU:
				ix, err := b.Static(part)
				if err != nil {
					errs[i] = err
					return
				}
				sh := &rcuShard{
					cap: cfg.DeltaCap, bound: cfg.DeltaBound,
					build: b.Static, parent: s, id: i,
				}
				sh.mergeCond = sync.NewCond(&sh.mu)
				sh.snap.Store(&snapshot{recs: part, ix: ix})
				sh.active.Store(&delta{tail: make([]deltaRec, tail)})
				sh.frozen.Store(&emptyDelta)
				sh.size.Store(int64(len(part)))
				built[i] = sh
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	switch cfg.Mode {
	case LockRW:
		s.rw = make([]*rwShard, cfg.Shards)
		for i := range s.rw {
			s.rw[i] = &rwShard{ix: built[i].(MutableIndex)}
		}
	case LockRCU:
		s.rcu = make([]*rcuShard, cfg.Shards)
		for i := range s.rcu {
			s.rcu[i] = built[i].(*rcuShard)
		}
	}
	return s, nil
}

// tailCap sizes the delta append tail: half the merge trigger, clamped
// to [8, 128] so point reads scan a bounded tail and folds amortize over
// enough appends.
func tailCap(deltaCap int) int {
	t := deltaCap / 2
	if t < 8 {
		t = 8
	}
	if t > 128 {
		t = 128
	}
	return t
}

// SetObserver routes structural events (RCU snapshot swaps, labeled with
// the emitting shard) into r; nil detaches.
func (s *Sharded) SetObserver(r obs.Recorder) { s.hook.SetRecorder(r) }

// ShardMetrics returns the per-shard metrics bundles, nil unless
// Config.MetricsPrefix was set.
func (s *Sharded) ShardMetrics() []*obs.Metrics { return s.mets }

// Mode returns the configured lock mode.
func (s *Sharded) Mode() LockMode { return s.mode }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.router.Shards() }

// Router returns the key→shard router.
func (s *Sharded) Router() Router { return s.router }

// ---------------------------------------------------------------------------
// Buffer pools
// ---------------------------------------------------------------------------

// getDrec returns a pooled deltaRec buffer (length 0) with capacity ≥ n.
func (s *Sharded) getDrec(n int) *[]deltaRec {
	if p, _ := s.drecs.Get().(*[]deltaRec); p != nil && cap(*p) >= n {
		*p = (*p)[:0]
		return p
	}
	b := make([]deltaRec, 0, n)
	return &b
}

func (s *Sharded) putDrec(p *[]deltaRec) { s.drecs.Put(p) }

// getTail returns a pooled full-length tail buffer of length n. Entries
// above the published tailLen are garbage by design — readers never look
// past the atomic length.
func (s *Sharded) getTail(n int) []deltaRec {
	p := s.getDrec(n)
	return (*p)[:n]
}

// getRecs returns a pooled KV buffer (length 0) with capacity ≥ n.
func (s *Sharded) getRecs(n int) *[]core.KV {
	if p, _ := s.recs.Get().(*[]core.KV); p != nil && cap(*p) >= n {
		*p = (*p)[:0]
		return p
	}
	b := make([]core.KV, 0, n)
	return &b
}

func (s *Sharded) putRecs(p *[]core.KV) { s.recs.Put(p) }

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

// Get returns the value stored for k.
func (s *Sharded) Get(k core.Key) (core.Value, bool) {
	si := s.router.Route(k)
	var t obs.OpTimer
	if s.mets != nil {
		t = s.mets[si].Lookups.IncSampled()
	}
	var v core.Value
	var ok bool
	if s.mode == LockRW {
		sh := s.rw[si]
		sh.mu.RLock()
		v, ok = sh.ix.Get(k)
		sh.mu.RUnlock()
	} else {
		v, ok = s.rcu[si].get(k)
	}
	if s.mets != nil {
		m := s.mets[si]
		t.Observe(&m.GetNS)
		if ok {
			m.Hits.Inc()
		}
	}
	return v, ok
}

// Insert upserts (k, v).
func (s *Sharded) Insert(k core.Key, v core.Value) {
	si := s.router.Route(k)
	var t obs.OpTimer
	if s.mets != nil {
		t = s.mets[si].Inserts.IncSampled()
	}
	if s.mode == LockRW {
		sh := s.rw[si]
		sh.mu.Lock()
		sh.ix.Insert(k, v)
		sh.mu.Unlock()
	} else {
		s.rcu[si].insert(k, v)
	}
	if s.mets != nil {
		t.Observe(&s.mets[si].InsertNS)
	}
}

// Delete removes k, reporting whether it was present.
func (s *Sharded) Delete(k core.Key) bool {
	si := s.router.Route(k)
	var t obs.OpTimer
	if s.mets != nil {
		t = s.mets[si].Deletes.IncSampled()
	}
	var ok bool
	if s.mode == LockRW {
		sh := s.rw[si]
		sh.mu.Lock()
		ok = sh.ix.Delete(k)
		sh.mu.Unlock()
	} else {
		ok = s.rcu[si].delete(k)
	}
	if s.mets != nil {
		t.Observe(&s.mets[si].DeleteNS)
	}
	return ok
}

// Len returns the number of records across all shards.
func (s *Sharded) Len() int {
	total := 0
	for i := 0; i < s.Shards(); i++ {
		total += s.shardLen(i)
	}
	return total
}

// ShardLen returns the number of records in shard i.
func (s *Sharded) ShardLen(i int) int { return s.shardLen(i) }

func (s *Sharded) shardLen(i int) int {
	if s.mode == LockRW {
		sh := s.rw[i]
		sh.mu.RLock()
		n := sh.ix.Len()
		sh.mu.RUnlock()
		return n
	}
	return int(s.rcu[i].size.Load())
}

// Imbalance is the shard-imbalance gauge: the largest shard's share of the
// records divided by the ideal equal share (1 = perfectly balanced,
// Shards() = everything on one shard, 0 = empty index).
func (s *Sharded) Imbalance() float64 {
	total, max := 0, 0
	for i := 0; i < s.Shards(); i++ {
		n := s.shardLen(i)
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
	for _, sh := range s.rcu {
		n += sh.swaps.Load()
	}
	return n
}

// RCUStalls returns the total number of writer backpressure waits — times
// a writer blocked because the active delta hit DeltaBound while a merge
// was in flight (0 in LockRW mode).
func (s *Sharded) RCUStalls() uint64 {
	var n uint64
	for _, sh := range s.rcu {
		n += sh.stalls.Load()
	}
	return n
}

// EpochReclaims returns the number of retired buffers the epoch domain
// has recycled so far (0 in LockRW mode).
func (s *Sharded) EpochReclaims() uint64 { return s.epoch.reclaims.Load() }

// DeltaLen returns the record count currently overlaying RCU shard i's
// snapshot (active + frozen, sorted + tail); 0 in LockRW mode.
func (s *Sharded) DeltaLen(i int) int {
	if s.mode != LockRCU {
		return 0
	}
	sh := s.rcu[i]
	return sh.active.Load().overlay() + sh.frozen.Load().overlay()
}

// DeltaCeiling returns the guaranteed upper bound on any single delta
// level's overlay under write saturation: DeltaBound plus the append
// tail size. The conform stress tier asserts DeltaLen never exceeds
// twice this (active + frozen each obey it).
func (s *Sharded) DeltaCeiling() int {
	if s.mode != LockRCU || len(s.rcu) == 0 {
		return 0
	}
	sh := s.rcu[0]
	return sh.bound + len(sh.active.Load().tail)
}

// WaitMerges blocks until every RCU shard has drained its merge
// pipeline: in-flight background merges complete and cap-exceeding
// active deltas are merged too. A no-op in LockRW mode. Intended for
// tests and benchmarks that need deterministic swap counts; with
// concurrent writers the pipeline may refill immediately.
func (s *Sharded) WaitMerges() {
	for _, sh := range s.rcu {
		sh.mu.Lock()
		sh.waitMergesLocked()
		sh.mu.Unlock()
	}
}

// Stats aggregates the per-shard structure statistics.
func (s *Sharded) Stats() core.Stats {
	agg := core.Stats{Name: fmt.Sprintf("sharded-%s(%d)", s.mode, s.Shards())}
	for i := 0; i < s.Shards(); i++ {
		var st core.Stats
		if s.mode == LockRW {
			sh := s.rw[i]
			sh.mu.RLock()
			st = sh.ix.Stats()
			sh.mu.RUnlock()
		} else {
			sh := s.rcu[i]
			snap := sh.snap.Load()
			st = snap.ix.Stats()
			st.Count = int(sh.size.Load())
			st.IndexBytes += s.DeltaLen(i) * 24
		}
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
		count += s.shardRange(si, lo, hi, func(k core.Key, v core.Value) bool {
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

func (s *Sharded) shardRange(si int, lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	if s.mode == LockRW {
		sh := s.rw[si]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.ix.Range(lo, hi, fn)
	}
	return s.rcu[si].rangeScan(lo, hi, fn)
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
			s.shardRange(si, lo, hi, func(k core.Key, v core.Value) bool {
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
			s.shardRange(si, lo, hi, func(k core.Key, v core.Value) bool {
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

// ---------------------------------------------------------------------------
// Batched operations
// ---------------------------------------------------------------------------

// batchParallelMin is the batch size below which per-shard groups are
// executed inline on the calling goroutine: the fan-out only pays for
// itself once per-shard work outweighs goroutine handoff (and never on a
// single-core host). The allocation regression tier relies on sizes
// below this staying on the inline (allocation-free) path.
const batchParallelMin = 512

func (s *Sharded) parallelBatch(n int) bool {
	return n >= batchParallelMin && s.Shards() > 1 && runtime.GOMAXPROCS(0) > 1
}

// batchScratch is the reusable counting-sort workspace for batch
// grouping, pooled on the Sharded so grouping allocates nothing in
// steady state. idx[starts[si]:starts[si+1]] lists the input positions
// owned by shard si, preserving input order — the order batch semantics
// (later-wins upserts, first-wins deletes) depend on.
type batchScratch struct {
	shardOf []int32
	starts  []int32
	cur     []int32
	idx     []int32
}

func (sc *batchScratch) grow(n, shards int) {
	if cap(sc.shardOf) < n {
		sc.shardOf = make([]int32, n)
		sc.idx = make([]int32, n)
	}
	sc.shardOf = sc.shardOf[:n]
	sc.idx = sc.idx[:n]
	if cap(sc.starts) < shards+1 {
		sc.starts = make([]int32, shards+1)
		sc.cur = make([]int32, shards)
	}
	sc.starts = sc.starts[:shards+1]
	sc.cur = sc.cur[:shards]
}

// fill builds starts/idx from shardOf (with per-shard counts already in
// cur) by counting sort: prefix-sum, then stable placement.
func (sc *batchScratch) fill(shards int) {
	off := int32(0)
	for si := 0; si < shards; si++ {
		sc.starts[si] = off
		off += sc.cur[si]
		sc.cur[si] = sc.starts[si]
	}
	sc.starts[shards] = off
	for i, si := range sc.shardOf {
		sc.idx[sc.cur[si]] = int32(i)
		sc.cur[si]++
	}
}

func (s *Sharded) getScratch() *batchScratch {
	if sc, _ := s.scratch.Get().(*batchScratch); sc != nil {
		return sc
	}
	return &batchScratch{}
}

func (s *Sharded) putScratch(sc *batchScratch) { s.scratch.Put(sc) }

// groupKeys groups keys by owning shard. When every key routes to the
// same shard — the common case for clustered keys under range
// partitioning — it returns that shard and skips the counting sort
// entirely; callers then process keys in input order with a nil idx.
// Otherwise it returns -1 with starts/idx filled.
func (s *Sharded) groupKeys(keys []core.Key, sc *batchScratch) int {
	ns := s.router.Shards()
	sc.grow(len(keys), ns)
	for i := range sc.cur {
		sc.cur[i] = 0
	}
	first := int32(s.router.Route(keys[0]))
	single := true
	for i, k := range keys {
		si := int32(s.router.Route(k))
		sc.shardOf[i] = si
		sc.cur[si]++
		single = single && si == first
	}
	if single {
		return int(first)
	}
	sc.fill(ns)
	return -1
}

// groupRecs is groupKeys over record keys.
func (s *Sharded) groupRecs(recs []core.KV, sc *batchScratch) int {
	ns := s.router.Shards()
	sc.grow(len(recs), ns)
	for i := range sc.cur {
		sc.cur[i] = 0
	}
	first := int32(s.router.Route(recs[0].Key))
	single := true
	for i := range recs {
		si := int32(s.router.Route(recs[i].Key))
		sc.shardOf[i] = si
		sc.cur[si]++
		single = single && si == first
	}
	if single {
		return int(first)
	}
	sc.fill(ns)
	return -1
}

// LookupBatch resolves keys in one pass, writing answers into the
// caller-supplied vals and oks slices (len(keys) each; vals[i], oks[i]
// answer keys[i]): zero allocations in steady state, pinned by the
// allocation regression tier. The whole cross-shard call is the span's
// shard stage.
//
// Small batches run a lock-coalescing loop: keys are answered in input
// order, holding a shard's read lock only while consecutive keys stay in
// that shard — one lock acquisition per batch for clustered keys, never
// more than looped Gets for scattered ones, and no grouping pass at all
// (RCU shards take no lock either way; the whole batch runs under one
// epoch pin). Large batches on multi-core hosts are grouped by shard
// with a pooled counting sort and fan out one goroutine per shard.
func (s *Sharded) LookupBatch(keys []core.Key, vals []core.Value, oks []bool, sp *core.Span) {
	if len(vals) != len(keys) || len(oks) != len(keys) {
		panic("shard: LookupBatch: vals/oks length must equal len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	defer sp.End(core.StageShard, sp.Begin())
	if !s.parallelBatch(len(keys)) && s.mets == nil {
		s.lookupCoalesced(keys, vals, oks)
		return
	}
	sc := s.getScratch()
	single := s.groupKeys(keys, sc)
	var slot *epochSlot
	if s.mode == LockRCU {
		slot = s.epoch.pin()
	}
	if single >= 0 {
		s.lookupGroup(single, nil, keys, vals, oks)
	} else if s.parallelBatch(len(keys)) {
		var wg sync.WaitGroup
		for si := 0; si < s.Shards(); si++ {
			b, e := sc.starts[si], sc.starts[si+1]
			if b == e {
				continue
			}
			wg.Add(1)
			go func(si int, idx []int32) {
				defer wg.Done()
				s.lookupGroup(si, idx, keys, vals, oks)
			}(si, sc.idx[b:e])
		}
		wg.Wait()
	} else {
		for si := 0; si < s.Shards(); si++ {
			if b, e := sc.starts[si], sc.starts[si+1]; b != e {
				s.lookupGroup(si, sc.idx[b:e], keys, vals, oks)
			}
		}
	}
	if slot != nil {
		s.epoch.unpin(slot)
	}
	s.putScratch(sc)
}

// lookupCoalesced is the small-batch lookup path: in-order with
// coalesced locking, no grouping, no allocations, no per-shard metric
// attribution (callers route metric-attached layers through the grouped
// path instead).
func (s *Sharded) lookupCoalesced(keys []core.Key, vals []core.Value, oks []bool) {
	if s.mode == LockRCU {
		slot := s.epoch.pin()
		for i, k := range keys {
			vals[i], oks[i] = s.rcu[s.router.Route(k)].read(k)
		}
		s.epoch.unpin(slot)
		return
	}
	last := -1
	var sh *rwShard
	for i, k := range keys {
		if si := s.router.Route(k); si != last {
			if sh != nil {
				sh.mu.RUnlock()
			}
			sh = s.rw[si]
			sh.mu.RLock()
			last = si
		}
		vals[i], oks[i] = sh.ix.Get(k)
	}
	sh.mu.RUnlock()
}

// lookupGroup resolves one shard's group. A nil idx means the whole
// batch routed to this shard: keys are processed in input order with no
// index indirection (the single-shard fast path).
func (s *Sharded) lookupGroup(si int, idx []int32, keys []core.Key, vals []core.Value, oks []bool) {
	hits, n := 0, len(idx)
	if idx == nil {
		n = len(keys)
	}
	if s.mode == LockRW {
		sh := s.rw[si]
		sh.mu.RLock()
		if idx == nil {
			for i, k := range keys {
				vals[i], oks[i] = sh.ix.Get(k)
				if oks[i] {
					hits++
				}
			}
		} else {
			for _, i := range idx {
				vals[i], oks[i] = sh.ix.Get(keys[i])
				if oks[i] {
					hits++
				}
			}
		}
		sh.mu.RUnlock()
	} else {
		sh := s.rcu[si]
		if idx == nil {
			for i, k := range keys {
				vals[i], oks[i] = sh.read(k)
				if oks[i] {
					hits++
				}
			}
		} else {
			for _, i := range idx {
				vals[i], oks[i] = sh.read(keys[i])
				if oks[i] {
					hits++
				}
			}
		}
	}
	if s.mets != nil {
		m := s.mets[si]
		m.Lookups.Add(uint64(n))
		m.Hits.Add(uint64(hits))
	}
}

// InsertBatch upserts recs in one pass. Small batches apply in input
// order with coalesced locking — a shard's write lock is held while
// consecutive records stay in that shard, which preserves sequential
// later-wins semantics by construction. Large batches on multi-core
// hosts group by shard and fan out one goroutine per shard (input order
// within each shard, so cross-batch duplicates still resolve
// later-wins). The whole call is the span's shard stage; the error is
// always nil (an in-memory layer cannot fail a write).
func (s *Sharded) InsertBatch(recs []core.KV, sp *core.Span) error {
	if len(recs) == 0 {
		return nil
	}
	defer sp.End(core.StageShard, sp.Begin())
	if !s.parallelBatch(len(recs)) && s.mets == nil {
		s.insertCoalesced(recs)
		return nil
	}
	sc := s.getScratch()
	single := s.groupRecs(recs, sc)
	if single >= 0 {
		s.insertGroup(single, nil, recs)
	} else if s.parallelBatch(len(recs)) {
		var wg sync.WaitGroup
		for si := 0; si < s.Shards(); si++ {
			b, e := sc.starts[si], sc.starts[si+1]
			if b == e {
				continue
			}
			wg.Add(1)
			go func(si int, idx []int32) {
				defer wg.Done()
				s.insertGroup(si, idx, recs)
			}(si, sc.idx[b:e])
		}
		wg.Wait()
	} else {
		for si := 0; si < s.Shards(); si++ {
			if b, e := sc.starts[si], sc.starts[si+1]; b != e {
				s.insertGroup(si, sc.idx[b:e], recs)
			}
		}
	}
	s.putScratch(sc)
	return nil
}

// insertGroup applies one shard's group; nil idx means the whole batch
// (input order, no indirection).
func (s *Sharded) insertGroup(si int, idx []int32, recs []core.KV) {
	n := len(idx)
	if idx == nil {
		n = len(recs)
	}
	if s.mode == LockRW {
		sh := s.rw[si]
		sh.mu.Lock()
		if idx == nil {
			for i := range recs {
				sh.ix.Insert(recs[i].Key, recs[i].Value)
			}
		} else {
			for _, i := range idx {
				sh.ix.Insert(recs[i].Key, recs[i].Value)
			}
		}
		sh.mu.Unlock()
	} else {
		s.rcu[si].insertGroup(recs, idx)
	}
	if s.mets != nil {
		s.mets[si].Inserts.Add(uint64(n))
	}
}

// insertCoalesced is the small-batch insert path: in-order with
// coalesced locking, no grouping pass.
func (s *Sharded) insertCoalesced(recs []core.KV) {
	last := -1
	if s.mode == LockRW {
		var sh *rwShard
		for i := range recs {
			if si := s.router.Route(recs[i].Key); si != last {
				if sh != nil {
					sh.mu.Unlock()
				}
				sh = s.rw[si]
				sh.mu.Lock()
				last = si
			}
			sh.ix.Insert(recs[i].Key, recs[i].Value)
		}
		sh.mu.Unlock()
		return
	}
	var sh *rcuShard
	for i := range recs {
		if si := s.router.Route(recs[i].Key); si != last {
			if sh != nil {
				sh.mu.Unlock()
			}
			sh = s.rcu[si]
			sh.mu.Lock()
			last = si
		}
		sh.applyInsertLocked(recs[i])
	}
	sh.mu.Unlock()
}

// DeleteBatch removes keys in one pass, overwriting the caller-supplied
// oks (len(keys)): oks[i] reports whether keys[i] was present, with
// sequential semantics: within one batch, the first occurrence of a
// duplicated key reports its liveness and later occurrences report
// false — exactly what a sequential Delete loop would observe. Small batches apply in input order with coalesced locking;
// large batches on multi-core hosts group by shard and fan out. The
// whole call is the span's shard stage; the error is always nil.
func (s *Sharded) DeleteBatch(keys []core.Key, oks []bool, sp *core.Span) error {
	if len(oks) != len(keys) {
		panic("shard: DeleteBatch: oks length must equal len(keys)")
	}
	if len(keys) == 0 {
		return nil
	}
	defer sp.End(core.StageShard, sp.Begin())
	if !s.parallelBatch(len(keys)) && s.mets == nil {
		s.deleteCoalesced(keys, oks)
		return nil
	}
	sc := s.getScratch()
	single := s.groupKeys(keys, sc)
	if single >= 0 {
		s.deleteGroup(single, nil, keys, oks)
	} else if s.parallelBatch(len(keys)) {
		var wg sync.WaitGroup
		for si := 0; si < s.Shards(); si++ {
			b, e := sc.starts[si], sc.starts[si+1]
			if b == e {
				continue
			}
			wg.Add(1)
			go func(si int, idx []int32) {
				defer wg.Done()
				s.deleteGroup(si, idx, keys, oks)
			}(si, sc.idx[b:e])
		}
		wg.Wait()
	} else {
		for si := 0; si < s.Shards(); si++ {
			if b, e := sc.starts[si], sc.starts[si+1]; b != e {
				s.deleteGroup(si, sc.idx[b:e], keys, oks)
			}
		}
	}
	s.putScratch(sc)
	return nil
}

// deleteGroup applies one shard's group; nil idx means the whole batch
// (input order, no indirection).
func (s *Sharded) deleteGroup(si int, idx []int32, keys []core.Key, oks []bool) {
	n := len(idx)
	if idx == nil {
		n = len(keys)
	}
	if s.mode == LockRW {
		sh := s.rw[si]
		sh.mu.Lock()
		if idx == nil {
			for i, k := range keys {
				oks[i] = sh.ix.Delete(k)
			}
		} else {
			for _, i := range idx {
				oks[i] = sh.ix.Delete(keys[i])
			}
		}
		sh.mu.Unlock()
	} else {
		s.rcu[si].deleteGroup(keys, idx, oks)
	}
	if s.mets != nil {
		s.mets[si].Deletes.Add(uint64(n))
	}
}

// deleteCoalesced is the small-batch delete path: in-order with
// coalesced locking, no grouping pass.
func (s *Sharded) deleteCoalesced(keys []core.Key, oks []bool) {
	last := -1
	if s.mode == LockRW {
		var sh *rwShard
		for i, k := range keys {
			if si := s.router.Route(k); si != last {
				if sh != nil {
					sh.mu.Unlock()
				}
				sh = s.rw[si]
				sh.mu.Lock()
				last = si
			}
			oks[i] = sh.ix.Delete(k)
		}
		sh.mu.Unlock()
		return
	}
	var sh *rcuShard
	for i, k := range keys {
		if si := s.router.Route(k); si != last {
			if sh != nil {
				sh.mu.Unlock()
			}
			sh = s.rcu[si]
			sh.mu.Lock()
			last = si
		}
		oks[i] = sh.applyDeleteLocked(k)
	}
	sh.mu.Unlock()
}

// Close drains in-flight background merges, then forwards Close to every
// shard backend with the io.Closer capability, returning the first
// error. Shard backends are in-memory today, so the backend half is
// usually a no-op, but the capability must survive the wrapper for
// stacks built over closeable backends.
func (s *Sharded) Close() error {
	var first error
	closeIx := func(ix Index) {
		if c, ok := ix.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if s.mode == LockRW {
		for _, sh := range s.rw {
			sh.mu.Lock()
			closeIx(sh.ix)
			sh.mu.Unlock()
		}
		return first
	}
	for _, sh := range s.rcu {
		sh.mu.Lock()
		sh.closed = true // stop scheduleLocked from spawning new merges
		for sh.merging {
			sh.mergeCond.Wait()
		}
		closeIx(sh.snap.Load().ix)
		sh.mu.Unlock()
	}
	s.epoch.collect()
	return first
}
