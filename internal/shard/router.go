// Package shard is the concurrent serving layer of the lix library: it
// range-partitions the key space across N shards, each wrapping one
// single-threaded mutable index from the registry, and makes the ensemble
// safe for concurrent use (§6.5 of the survey frames concurrency as the
// open challenge for learned structures). There is one design: each shard
// is a mutable index behind a reader-writer lock made for sub-microsecond
// holds (lock.go). Reads of a shard share the lock, a write excludes
// them, and traffic to different shards never contends. A Range callback
// runs inside the shard's read hold, so a consumer that may block collects
// first (SearchRange) and acts afterwards. Readers that must never wait for
// a writer are not this package's: data that does not change needs no lock
// (any static kind), and internal/xindex is the paper's delta-buffer design
// (DESIGN.md §4).
//
// The layer also amortizes coordination: bulk build runs one goroutine per
// shard, a batched call is cut into per-shard runs that each take their
// shard's lock once (batch.go), and SearchRange fans out across the covered
// shards and concatenates the per-shard results in shard order (shards are
// range-partitioned, so concatenation is the ordered merge).
package shard

import (
	"fmt"
	"sort"

	"github.com/lix-go/lix/internal/core"
)

// Router maps keys to shards by range partitioning. bounds holds the N-1
// ascending split keys of an N-shard router: shard i owns the half-open
// key interval [bounds[i-1], bounds[i]) (with implicit bounds of 0 below
// and +inf above), so a key equal to a split key belongs to the shard
// above the split. Duplicate split keys are legal and yield empty shards.
//
// The zero value is a 1-shard router that owns the whole key space.
type Router struct {
	bounds []core.Key
}

// NewRouter returns a router over the given split keys. The slice is
// copied and sorted; duplicates are kept (they produce empty shards).
func NewRouter(splits []core.Key) Router {
	b := append([]core.Key(nil), splits...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return Router{bounds: b}
}

// UniformRouter returns an n-shard router with splits evenly spaced over
// the full uint64 key space. It is the fallback when no records are
// available to sample quantiles from.
func UniformRouter(n int) Router {
	if n <= 1 {
		return Router{}
	}
	step := ^core.Key(0)/core.Key(n) + 1
	bounds := make([]core.Key, n-1)
	for i := range bounds {
		bounds[i] = step * core.Key(i+1)
	}
	return Router{bounds: bounds}
}

// QuantileRouter returns an n-shard router whose splits are the n-quantile
// keys of recs (sorted ascending), so a bulk build over recs yields
// near-equal shard populations. With fewer records than shards the excess
// shards come out empty.
func QuantileRouter(recs []core.KV, n int) Router {
	if n <= 1 || len(recs) == 0 {
		return UniformRouter(n)
	}
	bounds := make([]core.Key, n-1)
	for i := range bounds {
		bounds[i] = recs[(i+1)*len(recs)/n].Key
	}
	return Router{bounds: bounds}
}

// Shards returns the number of shards the router partitions into.
func (r Router) Shards() int { return len(r.bounds) + 1 }

// Route returns the shard owning k. It is total (every key routes), stable
// (pure function of k) and order-preserving (k1 <= k2 implies
// Route(k1) <= Route(k2)); FuzzShardRouter pins all three.
func (r Router) Route(k core.Key) int { return core.UpperBound(r.bounds, k) }

// Owns returns the key interval owned by shard i as an inclusive pair
// [lo, hi]. Empty shards (duplicate splits) report ok=false.
func (r Router) Owns(i int) (lo, hi core.Key, ok bool) {
	if i < 0 || i >= r.Shards() {
		return 0, 0, false
	}
	if i > 0 {
		lo = r.bounds[i-1]
	}
	hi = ^core.Key(0)
	if i < len(r.bounds) {
		if r.bounds[i] == 0 {
			return 0, 0, false // shard below a split at key 0 owns nothing
		}
		hi = r.bounds[i] - 1
	}
	return lo, hi, lo <= hi
}

// Bounds returns a copy of the split keys.
func (r Router) Bounds() []core.Key { return append([]core.Key(nil), r.bounds...) }

// Partition slices recs (sorted ascending by key) into one contiguous
// sub-slice per shard, aliasing recs. Sub-slices of empty shards are
// empty.
func (r Router) Partition(recs []core.KV) [][]core.KV {
	n := r.Shards()
	parts := make([][]core.KV, n)
	start := 0
	for i := 0; i < n-1; i++ {
		end := start + core.LowerBoundKV(recs[start:], r.bounds[i])
		parts[i] = recs[start:end]
		start = end
	}
	parts[n-1] = recs[start:]
	return parts
}

func (r Router) validate() error {
	for i := 1; i < len(r.bounds); i++ {
		if r.bounds[i] < r.bounds[i-1] {
			return fmt.Errorf("shard: router bounds not ascending at %d", i)
		}
	}
	return nil
}
