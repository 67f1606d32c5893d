package lix

import (
	"fmt"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/shard"
)

// Sharded is the range-partitioned concurrent serving layer: it wraps any
// registered index kind into an N-shard structure with a reader-writer
// lock or RCU snapshot-swap concurrency per shard, parallel bulk build,
// batched LookupBatch/InsertBatch, and cross-shard SearchRange fan-out.
// All methods are safe for concurrent use. See DESIGN.md §"Sharded
// serving layer".
type Sharded = shard.Sharded

// ShardMode selects the per-shard concurrency scheme of a Sharded index.
type ShardMode = shard.LockMode

// The shard lock modes.
const (
	// ShardRW guards each shard's mutable index with one reader-writer
	// lock: readers of a shard share it, a writer excludes them, and a
	// waiter polls and yields before it sleeps (DESIGN.md §4).
	ShardRW = shard.LockRW
	// ShardRCU serves lock-free reads from an immutable snapshot + delta
	// pair and swaps in merged snapshots RCU-style.
	ShardRCU = shard.LockRCU
)

// ShardedConfig configures NewSharded.
type ShardedConfig struct {
	// Shards is the shard count (0 selects 8).
	Shards int
	// Mode selects the concurrency scheme (default ShardRW).
	Mode ShardMode
	// Backend is the per-shard mutable index kind for ShardRW mode, one of
	// Mutable1DKinds ("" selects "btree").
	Backend string
	// Snapshot is the per-shard read-optimized index kind for ShardRCU
	// mode, one of Static1DKinds ("" selects "pgm").
	Snapshot string
	// DeltaCap is the per-shard delta size that schedules a background RCU
	// snapshot merge (0 selects the shard package default).
	DeltaCap int
	// DeltaBound is the hard per-shard delta size: writers about to grow
	// the delta past it while a merge is in flight block until the merge
	// completes (0 selects 4×DeltaCap).
	DeltaBound int
	// MetricsPrefix, when non-empty, creates one Metrics bundle per shard
	// named "<prefix>-shard<i>" (retrieve them with ShardMetrics).
	MetricsPrefix string
}

// NewSharded builds the sharded serving layer over recs (sorted ascending,
// distinct keys; may be nil to start empty). Shard boundaries are the
// record quantiles when records are given, else uniform over the key
// space; the per-shard sub-indexes build in parallel, one goroutine per
// shard.
func NewSharded(recs []KV, cfg ShardedConfig) (*Sharded, error) {
	if cfg.Backend == "" {
		cfg.Backend = "btree"
	}
	if cfg.Snapshot == "" {
		cfg.Snapshot = "pgm"
	}
	b := shard.Builders{}
	switch cfg.Mode {
	case ShardRW:
		k, err := registry.Mutable(cfg.Backend)
		if err != nil {
			return nil, err
		}
		b.New = func() (shard.MutableIndex, error) { return k.New() }
		if k.Bulk != nil {
			// The kind has a bulk path faster than an insert loop.
			b.Bulk = func(recs []core.KV) (shard.MutableIndex, error) { return k.Bulk(recs) }
		}
	case ShardRCU:
		k, err := registry.Static(cfg.Snapshot)
		if err != nil {
			return nil, err
		}
		if !k.Caps.AllowsEmpty {
			return nil, fmt.Errorf("lix: sharded snapshot kind %q must build empty", cfg.Snapshot)
		}
		b.Static = func(recs []core.KV) (shard.Index, error) { return k.Static(recs) }
	default:
		return nil, fmt.Errorf("lix: unknown shard mode %v", cfg.Mode)
	}
	return shard.New(recs, shard.Config{
		Shards:        cfg.Shards,
		Mode:          cfg.Mode,
		DeltaCap:      cfg.DeltaCap,
		DeltaBound:    cfg.DeltaBound,
		MetricsPrefix: cfg.MetricsPrefix,
	}, b)
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
