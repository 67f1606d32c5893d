package lix

import (
	"fmt"
	"strconv"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/store"
)

// Durable is a crash-safe index: every mutation is framed into an
// append-only log as it is applied in memory and the log is committed
// before the mutation is acknowledged, and background
// checkpoints rotate the log and flush the retired part's delta into an
// immutable sorted run (O(delta), never a rewrite of the dataset), with a
// size-tiered compactor keeping the run count bounded. NewStack with
// StackConfig.Dir builds it, and reopening the directory recovers the
// exact committed state after a crash. See DESIGN.md §"Durable storage".
type Durable = store.Durable

// DurableRecoveryInfo describes what reopening a store reconstructed.
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

// metaKind and metaShards are the manifest meta keys the façade persists
// so a bare NewStack(nil, StackConfig{Dir: dir}) rebuilds the stored
// configuration.
const (
	metaKind   = "kind"
	metaShards = "shards"
)

// durablePlan resolves cfg into a store config and rebuild function. A
// fresh store takes cfg.Kind ("" selects "btree") and cfg.Shards. On
// reopen the kind and shard count stored in the newest manifest win; a
// field explicitly set to a different value is a configuration error, a
// zero value defers to disk.
func durablePlan(cfg StackConfig) (store.Config, store.BuildFunc, error) {
	kind := cfg.Kind
	if kind == "" {
		kind = "btree"
	}
	if cfg.Shards < 0 {
		return store.Config{}, nil, fmt.Errorf("lix: negative shard count %d", cfg.Shards)
	}
	scfg := store.Config{
		Fsync:           cfg.Fsync,
		SyncInterval:    cfg.SyncInterval,
		CheckpointEvery: cfg.CheckpointEvery,
		Meta: map[string]string{
			metaKind:   kind,
			metaShards: strconv.Itoa(cfg.Shards),
		},
		Metrics: cfg.Metrics,
	}
	build := func(meta map[string]string, recs []core.KV) (store.BuildResult, error) {
		useKind, useShards := kind, cfg.Shards
		if meta != nil {
			// Disk wins; explicitly conflicting options are an error, not a
			// silent reconfiguration.
			diskKind, diskShards, err := parseDurableMeta(meta)
			if err != nil {
				return store.BuildResult{}, err
			}
			if cfg.Kind != "" && cfg.Kind != diskKind {
				return store.BuildResult{}, fmt.Errorf(
					"lix: store holds kind %q, options ask for %q", diskKind, cfg.Kind)
			}
			if cfg.Shards != 0 && cfg.Shards != diskShards {
				return store.BuildResult{}, fmt.Errorf(
					"lix: store holds %d shards, options ask for %d", diskShards, cfg.Shards)
			}
			useKind, useShards = diskKind, diskShards
		}
		if useShards > 0 {
			s, err := newSharded(recs, useShards, useKind)
			if err != nil {
				return store.BuildResult{}, err
			}
			if cfg.Metrics != nil {
				// The shard locks' slow acquires; nothing else of a
				// ShardRW layer reaches its observer.
				s.SetObserver(cfg.Metrics)
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
	return scfg, build, nil
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
