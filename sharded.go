package lix

import (
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/shard"
)

// Sharded is the range-partitioned concurrent serving layer: it wraps any
// registered mutable index kind into an N-shard structure with one
// reader-writer lock per shard, parallel bulk build, one batch entry point
// (Apply: gets, upserts and deletes, grouped by shard, the groups of a
// large batch in parallel), and cross-shard SearchRange fan-out. NewStack
// builds it when StackConfig.Shards is positive. All methods are safe for
// concurrent use. A Range callback runs inside the shard's read hold: a
// consumer that may block collects first (SearchRange) and acts
// afterwards. See DESIGN.md §"Sharded serving layer".
type Sharded = shard.Sharded

// ShardMode is vestigial and selects nothing: there is one shard design —
// a mutable index behind a reader-writer lock per shard, whose waiters
// poll and yield before they sleep (DESIGN.md §4) — and every ShardMode
// value builds it. The type, its two constants and StackConfig.Mode/
// Snapshot stay only until the repo benchmark stops assigning them.
type ShardMode uint8

// The two names a ShardMode value has; neither selects anything.
const (
	ShardRW ShardMode = iota
	ShardRCU
)

// newSharded builds the shard layer over recs (sorted ascending, distinct
// keys; may be nil to start empty): shards shards, each an index of kind,
// one of Mutable1DKinds. Shard boundaries are the record quantiles
// when records are given, else uniform over the key space; the per-shard
// sub-indexes build in parallel, one goroutine per shard.
func newSharded(recs []KV, shards int, kind string) (*Sharded, error) {
	k, err := registry.Mutable(kind)
	if err != nil {
		return nil, err
	}
	b := shard.Builders{New: func() (shard.MutableIndex, error) { return k.New() }}
	if k.Bulk != nil {
		// The kind has a bulk path faster than an insert loop.
		b.Bulk = func(recs []core.KV) (shard.MutableIndex, error) { return k.Bulk(recs) }
	}
	return shard.New(recs, shard.Config{Shards: shards}, b)
}

// SearchRange collects every record of ix with lo <= key <= hi into a
// slice, in ascending key order. The result is always non-nil: before this
// helper, collecting a range out of an empty index returned nil from some
// implementations and an empty slice from others, and callers comparing
// against empty slices diverged. Dispatch is capability-driven: any index
// exposing the RangeSearcher capability (a Sharded's parallel cross-shard
// fan-out, or any wrapper forwarding it — obs, durable, Stack) answers
// through it; everything else scans through Range.
func SearchRange(ix Index, lo, hi Key) []KV {
	return core.CollectRange(ix, lo, hi)
}
