// Package store is the durable storage subsystem of the lix library. It
// persists any mutable index kind with the log-plus-sorted-runs shape used
// by disk-resident DBMS engines ("Updatable Learned Indexes Meet
// Disk-Resident DBMS"): one append-only write-ahead log per generation,
// with length+CRC record framing and a combining committer (records are
// buffered as they are applied; whoever commits writes the buffer for
// everyone), makes mutations durable before they are acknowledged, a
// checkpoint flushes the log's delta into an immutable sorted
// run (internal/sst) listed in a CRC32C-framed manifest, and recovery
// merges the committed WAL suffix over the runs of the newest valid
// manifest, truncating the log at the first torn or corrupt entry instead
// of failing.
//
// Files live in one directory:
//
//	lsm-<gen>.lix         manifest of generation <gen> (meta + run list)
//	sst-<id>.lix          immutable sorted run
//	wal-<gen>-000.lix     the log of generation <gen> (older versions wrote
//	                      one per segment, -001 and up; recovery reads all)
//
// A checkpoint rotates to the next generation: the new log first,
// then the run, then the manifest (each temp file, fsync, rename), and
// only then are the previous generation's files deleted, so recovery
// always finds either the old manifest plus the complete old WAL, or the
// new manifest. lsm.go has the engine. A directory that holds a checkpoint
// of the retired snapshot-rewrite engine (snap-<gen>.lix) is an Open
// error: that layout is neither converted nor ignored.
package store

import (
	"fmt"
	"hash/crc32"

	"github.com/lix-go/lix/internal/core"
)

// castagnoli is the CRC32C polynomial table shared by the WAL and the
// manifest codec (iSCSI polynomial, hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when the WAL is fsynced. The zero value is
// SyncAlways: the safest policy is the default.
type SyncPolicy uint8

// The fsync policies.
const (
	// SyncAlways fsyncs before every mutation is acknowledged (concurrent
	// committers share one write and one fsync).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher on a fixed cadence; a
	// crash may lose the last interval's writes.
	SyncInterval
	// SyncNever leaves flushing to the operating system; a crash may lose
	// anything since the last checkpoint or explicit Sync.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy parses the String form of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval or never)", s)
}

// OpKind is the WAL operation discriminator.
type OpKind uint8

// The logged operations. Values are part of the on-disk format.
const (
	OpInsert OpKind = 1
	OpDelete OpKind = 2
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Record is one logged mutation. Seq is the store-wide order recovery
// replays a key's records in, whichever files they are read from: it is
// assigned under the key's segment lock, which is held until the record
// is applied, so per key it is the apply order.
type Record struct {
	Seq uint64
	Op  OpKind
	Key core.Key
	Val core.Value // meaningful for OpInsert only
}

func (r Record) String() string {
	if r.Op == OpInsert {
		return fmt.Sprintf("#%d insert(%d, %d)", r.Seq, r.Key, r.Val)
	}
	return fmt.Sprintf("#%d %s(%d)", r.Seq, r.Op, r.Key)
}

// MutableIndex is the index surface the durable layer wraps.
type MutableIndex = core.MutableIndex

// Router maps a key to its write segment, the lock domain its writes are
// ordered in. The routing must be stable while the store is open (the same
// key always lands in the same segment): that is what makes a key's
// sequence order its apply order.
type Router func(k core.Key) int

// BuildResult is what a BuildFunc returns: the in-memory index plus the
// write segmentation it implies.
type BuildResult struct {
	// Index is the rebuilt in-memory index.
	Index MutableIndex
	// Route maps keys to write segments (nil routes everything to segment 0).
	Route Router
	// Segments is the write segment count (0 selects 1). The sharded layer
	// uses one per shard, so writers of different shards log and apply
	// beside each other.
	Segments int
	// ConcurrentReads declares the index safe for reads concurrent with
	// writes (the sharded layer, XIndex). When false the durable wrapper
	// serializes reads against writes itself, which requires Segments == 1.
	ConcurrentReads bool
}

// BuildFunc rebuilds the in-memory index during Open/Create. meta is the
// rebuild-parameter map persisted in the newest manifest, or nil when the
// directory is fresh (the builder then uses its own defaults, and
// Config.Meta is what gets persisted). recs is the recovered record set,
// sorted ascending by key.
type BuildFunc func(meta map[string]string, recs []core.KV) (BuildResult, error)
