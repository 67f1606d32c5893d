package lix

import (
	"fmt"
	"strconv"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/store"
)

// Durable is a crash-safe index: every mutation is framed into an
// append-only log as it is applied in memory and the log is committed
// before the mutation is acknowledged, and background
// checkpoints rotate the log and flush the retired part's delta into an
// immutable sorted run (O(delta), never a rewrite of the dataset), with a
// size-tiered compactor keeping the run count bounded. Open recovers the
// exact committed state after a crash. See DESIGN.md §"Durable storage".
type Durable = store.Durable

// DurableRecoveryInfo describes what Open reconstructed.
type DurableRecoveryInfo = store.RecoveryInfo

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy = store.SyncPolicy

// The fsync policies.
const (
	// FsyncAlways (the default) fsyncs before every mutation returns;
	// concurrent writers share fsyncs through group commit.
	FsyncAlways = store.SyncAlways
	// FsyncInterval fsyncs on a background cadence; a crash may lose the
	// last interval's writes.
	FsyncInterval = store.SyncInterval
	// FsyncNever leaves flushing to the OS; a crash may lose anything
	// since the last checkpoint or explicit Sync.
	FsyncNever = store.SyncNever
)

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return store.ParseSyncPolicy(s) }

// DurableOptions configures Open and NewDurable.
type DurableOptions struct {
	// Kind is the in-memory index kind, one of Mutable1DKinds ("" selects
	// "btree"). With Shards > 0 it is the per-shard backend.
	Kind string
	// Shards, when positive, serves through the sharded concurrent layer:
	// writers of different shards log and apply beside each other, into
	// the one log whose commits they share. Zero serves through a single
	// index, its writes serialized.
	Shards int
	// Fsync selects WAL durability (default FsyncAlways).
	Fsync SyncPolicy
	// SyncInterval is the background flush cadence under FsyncInterval
	// (0 selects the store default).
	SyncInterval time.Duration
	// CheckpointEvery triggers a background checkpoint after this many
	// logged records (0 selects the store default, negative disables).
	CheckpointEvery int
	// Metrics, when set, receives checkpoint/flush/recovery events and
	// fsync latencies.
	Metrics *obs.Metrics
}

// metaKind and metaShards are the manifest meta keys the façade persists
// so a bare Open(dir, DurableOptions{}) rebuilds the stored configuration.
const (
	metaKind   = "kind"
	metaShards = "shards"
)

// Open opens (or, for an empty directory, creates) the durable index at
// dir. On reopen the kind and shard count stored in the newest manifest
// win; opts fields explicitly set to a different value are a
// configuration error, zero values defer to disk. A directory written by
// the snapshot-rewrite engine of earlier versions (snap-<gen>.lix files) is
// an error naming the file, and is left untouched.
func Open(dir string, opts DurableOptions) (*Durable, error) {
	cfg, build, err := durablePlan(opts)
	if err != nil {
		return nil, err
	}
	return store.Open(dir, cfg, build)
}

// NewDurable creates a fresh durable index at dir seeded with recs
// (sorted ascending, distinct keys; may be nil) and writes the seed as
// the first run, so it is durable immediately. It fails if dir already
// holds a store.
func NewDurable(dir string, recs []KV, opts DurableOptions) (*Durable, error) {
	cfg, build, err := durablePlan(opts)
	if err != nil {
		return nil, err
	}
	return store.Create(dir, cfg, build, recs)
}

// durablePlan resolves opts into a store config and rebuild function.
func durablePlan(opts DurableOptions) (store.Config, store.BuildFunc, error) {
	kind := opts.Kind
	if kind == "" {
		kind = "btree"
	}
	if _, err := registry.Mutable(kind); err != nil {
		return store.Config{}, nil, err
	}
	if opts.Shards < 0 {
		return store.Config{}, nil, fmt.Errorf("lix: negative shard count %d", opts.Shards)
	}
	cfg := store.Config{
		Fsync:           opts.Fsync,
		SyncInterval:    opts.SyncInterval,
		CheckpointEvery: opts.CheckpointEvery,
		Meta: map[string]string{
			metaKind:   kind,
			metaShards: strconv.Itoa(opts.Shards),
		},
		Metrics: opts.Metrics,
	}
	build := func(meta map[string]string, recs []core.KV) (store.BuildResult, error) {
		useKind, useShards := kind, opts.Shards
		if meta != nil {
			// Disk wins; explicitly conflicting options are an error, not a
			// silent reconfiguration.
			diskKind, diskShards, err := parseDurableMeta(meta)
			if err != nil {
				return store.BuildResult{}, err
			}
			if opts.Kind != "" && opts.Kind != diskKind {
				return store.BuildResult{}, fmt.Errorf(
					"lix: store holds kind %q, options ask for %q", diskKind, opts.Kind)
			}
			if opts.Shards != 0 && opts.Shards != diskShards {
				return store.BuildResult{}, fmt.Errorf(
					"lix: store holds %d shards, options ask for %d", diskShards, opts.Shards)
			}
			useKind, useShards = diskKind, diskShards
		}
		if useShards > 0 {
			s, err := NewSharded(recs, ShardedConfig{Shards: useShards, Backend: useKind})
			if err != nil {
				return store.BuildResult{}, err
			}
			if opts.Metrics != nil {
				// The shard locks' slow acquires; nothing else of a
				// ShardRW layer reaches its observer.
				s.SetObserver(opts.Metrics)
			}
			r := s.Router()
			return store.BuildResult{
				Index:           s,
				Route:           func(k Key) int { return r.Route(k) },
				Segments:        s.Shards(),
				ConcurrentReads: true,
			}, nil
		}
		ix, err := registry.BuildMutable(useKind, recs)
		if err != nil {
			return store.BuildResult{}, err
		}
		return store.BuildResult{Index: ix, Segments: 1}, nil
	}
	return cfg, build, nil
}

func parseDurableMeta(meta map[string]string) (kind string, shards int, err error) {
	kind = meta[metaKind]
	if kind == "" {
		return "", 0, fmt.Errorf("lix: store meta has no %q entry", metaKind)
	}
	if s := meta[metaShards]; s != "" {
		shards, err = strconv.Atoi(s)
		if err != nil || shards < 0 {
			return "", 0, fmt.Errorf("lix: store meta %q=%q invalid", metaShards, s)
		}
	}
	if _, err := registry.Mutable(kind); err != nil {
		return "", 0, err
	}
	return kind, shards, nil
}
