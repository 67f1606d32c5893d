package lix

import (
	"fmt"
	"io"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/store"
	"github.com/lix-go/lix/internal/trace"
)

// StackConfig configures NewStack, the one-call engine constructor. Zero
// values select the canonical defaults: a single unsharded, non-durable,
// unobserved "btree" backend.
type StackConfig struct {
	// Kind is the backend index kind, one of Mutable1DKinds. With Shards
	// > 0 it is the per-shard backend. "" selects "btree", except when Dir
	// holds a store: then "" takes the stored kind, and any other value
	// must equal it.
	Kind string
	// Shards, when positive, inserts the sharded concurrent serving layer.
	// With Dir set, writers of different shards log and apply beside each
	// other (the log itself is one file; its commits combine). When Dir
	// holds a store, 0 takes the stored shard count, and any other value
	// must equal it; a negative count with Dir is an error.
	Shards int
	// Mode and Snapshot are vestigial and select nothing: there is one
	// shard design (see ShardMode). Any value of either is accepted, with
	// or without Dir; the fields stay only until the repo benchmark stops
	// assigning them.
	Mode     ShardMode
	Snapshot string
	// Dir, when non-empty, inserts the durable layer: the stack is opened
	// at (or created in) this directory with write-ahead logging and
	// sorted-run checkpoints.
	Dir string
	// Fsync selects WAL durability (default FsyncAlways; Dir only).
	Fsync SyncPolicy
	// SyncInterval is the background flush cadence under FsyncInterval
	// (Dir only; 0 selects the store default).
	SyncInterval time.Duration
	// CheckpointEvery triggers a checkpoint after this many logged records
	// (Dir only; 0 selects the store default, negative disables).
	CheckpointEvery int
	// StorageEngine is vestigial and selects nothing: there is one
	// checkpoint engine. "" and EngineLSM are accepted, anything else is a
	// NewStack error; field and constant stay only until the repo
	// benchmark stops assigning one to the other.
	StorageEngine string
	// Metrics, when set, wraps the stack in the observability layer: per-op
	// and per-batch latencies, counters, and (with Dir) fsync/checkpoint
	// events all record into this bundle.
	Metrics *Metrics
	// Trace, when set, attaches a request tracer bound to Metrics:
	// sampled per-stage spans, the slow-request log, and (with TopK) the
	// hot-key sketch. Span sampling requires Metrics; hot-key telemetry
	// alone does not. Retrieve the tracer with Stack.Tracer().
	Trace *TraceOptions
}

// EngineLSM is what StackConfig.StorageEngine accepts besides "".
const EngineLSM = "lsm"

// Stack is a fully assembled serving engine: backend → shard → durable →
// obs, composed in the one canonical order by NewStack. It satisfies
// MutableIndex plus the batch, commit, range and close capabilities (Apply,
// Commit, SearchRange, io.Closer), each dispatching through the layers' own
// capabilities so batched and parallel fast paths survive the whole stack.
type Stack struct {
	top     MutableIndex
	durable *Durable
	sharded *Sharded
	metrics *Metrics
	tracer  *Tracer
}

// NewStack assembles a serving stack over recs (sorted ascending,
// distinct keys; may be nil to start empty) in the canonical wrapping
// order; it is the one constructor of every layer. With Dir set and recs
// non-nil it creates the store, seeded with recs (the seed is written as
// the first run), and fails if Dir already holds one. With Dir set and
// recs nil it opens the store in Dir, creating an empty one in an empty
// directory, and recovers the committed state; the stored kind and shard
// count win (see StackConfig.Kind and Shards). A directory written by the
// snapshot-rewrite engine of earlier versions (snap-<gen>.lix files) is an
// error naming the file, and is left untouched.
func NewStack(recs []KV, cfg StackConfig) (*Stack, error) {
	kind := cfg.Kind
	if kind == "" {
		kind = "btree" // with Dir, durablePlan still lets a stored kind win
	}
	if _, err := registry.Mutable(kind); err != nil {
		return nil, err
	}
	if cfg.StorageEngine != "" && cfg.StorageEngine != EngineLSM {
		return nil, fmt.Errorf("lix: unknown storage engine %q", cfg.StorageEngine)
	}
	if t := cfg.Trace; t != nil && t.SampleRate > 0 && cfg.Metrics == nil {
		return nil, fmt.Errorf("lix: StackConfig.Trace.SampleRate > 0 requires StackConfig.Metrics")
	}
	s := &Stack{metrics: cfg.Metrics}

	var inner MutableIndex
	switch {
	case cfg.Dir != "":
		scfg, build, err := durablePlan(cfg)
		if err != nil {
			return nil, err
		}
		var d *Durable
		if recs != nil {
			d, err = store.Create(cfg.Dir, scfg, build, recs)
		} else {
			d, err = store.Open(cfg.Dir, scfg, build)
		}
		if err != nil {
			return nil, err
		}
		s.durable = d
		s.sharded, _ = d.Unwrap().(*Sharded)
		inner = d
	case cfg.Shards > 0:
		sh, err := newSharded(recs, cfg.Shards, kind)
		if err != nil {
			return nil, err
		}
		s.sharded = sh
		inner = sh
	default:
		ix, err := registry.BuildMutable(kind, recs)
		if err != nil {
			return nil, err
		}
		inner = ix
	}

	if cfg.Metrics != nil {
		s.top = ObserveMutable(inner, cfg.Metrics)
	} else {
		s.top = inner
	}
	if t := cfg.Trace; t != nil {
		s.tracer = trace.New(trace.Config{
			SampleRate:    t.SampleRate,
			SlowThreshold: t.SlowThreshold,
			TopK:          t.TopK,
			Metrics:       cfg.Metrics,
		})
	}
	return s, nil
}

// Get returns the value stored for k.
func (s *Stack) Get(k Key) (Value, bool) { return s.top.Get(k) }

// Range calls fn for every record with lo <= key <= hi in ascending
// order; fn returning false stops the scan.
func (s *Stack) Range(lo, hi Key, fn func(Key, Value) bool) int {
	return s.top.Range(lo, hi, fn)
}

// Len returns the number of records.
func (s *Stack) Len() int { return s.top.Len() }

// Stats reports the stack's structure statistics.
func (s *Stack) Stats() Stats { return s.top.Stats() }

// Insert upserts (k, v).
func (s *Stack) Insert(k Key, v Value) { s.top.Insert(k, v) }

// Delete removes k, reporting whether it was present.
func (s *Stack) Delete(k Key) bool { return s.top.Delete(k) }

// Apply and Commit are the batch and commit capabilities (core.Applier
// and core.Committer, which the server uses). Apply does a batch of gets,
// puts and deletes in one pass with the outcome of doing them in input
// order, into the caller-supplied vals and oks (len(ops) each): vals[i],
// oks[i] answer a get and oks[i] whether a delete's key was present. One
// pass is one lock hold per touched shard on a sharded stack, without an
// allocation, so a serving loop reuses its buffers indefinitely. A batch
// of gets alone touches no log. Over a durable stack Apply logs the writes
// as one append into the log's buffer without committing it; Commit writes
// out everything applied so far — one write(2), and one fsync under
// FsyncAlways, for however many batches came before. A caller of Apply
// must hold back every acknowledgement, and every read result that may
// show such a write, until Commit has returned nil. A store that cannot log
// the batch applies none of its writes, still answers its gets, and
// returns the error: the first I/O error, or the latched Err of a store
// that has already failed. On an in-memory stack the error is always nil
// and Commit is a no-op. sp is the request's span, nil when it is not
// sampled: each layer that can break its time out (durable: wal, fsync and
// apply; sharded: the batch) attributes its stages into it.
func (s *Stack) Apply(ops []Op, vals []Value, oks []bool, sp *Span) error {
	return core.Apply(s.top, ops, vals, oks, sp)
}

// Commit commits the durable layer's log up to its current end; see Apply.
func (s *Stack) Commit(sp *Span) error {
	if s.durable == nil {
		return nil
	}
	return core.Commit(s.top, sp)
}

// Err returns the durable layer's latched I/O error — non-nil once a
// write has failed, after which the stack refuses mutations and serves
// reads from memory — and nil for an in-memory stack. Readiness probes
// key off it.
func (s *Stack) Err() error {
	if s.durable == nil {
		return nil
	}
	return s.durable.Err()
}

// SearchRange collects every record with lo <= key <= hi in ascending key
// order (a sharded stack fans the scan out across shards in parallel).
// The result is always non-nil.
func (s *Stack) SearchRange(lo, hi Key) []KV { return core.CollectRange(s.top, lo, hi) }

// Close flushes and closes the durable layer (when present) through the
// stack's io.Closer forwarding; a purely in-memory stack closes as a
// no-op.
func (s *Stack) Close() error {
	if c, ok := s.top.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// CheckInvariants runs the stack's structural self-checks.
func (s *Stack) CheckInvariants() error { return CheckInvariants(s.top) }

// Durable returns the durable layer, nil for in-memory stacks.
func (s *Stack) Durable() *Durable { return s.durable }

// Sharded returns the shard layer, nil for unsharded stacks.
func (s *Stack) Sharded() *Sharded { return s.sharded }

// Metrics returns the metrics bundle the stack records into, nil unless
// StackConfig.Metrics was set.
func (s *Stack) Metrics() *Metrics { return s.metrics }

// Tracer returns the request tracer, nil unless StackConfig.Trace was
// set (a nil Tracer is safe everywhere and means "tracing off").
func (s *Stack) Tracer() *Tracer { return s.tracer }

// Unwrap returns the outermost wrapped layer (the obs wrapper's target
// when metrics are attached, else the top layer itself).
func (s *Stack) Unwrap() MutableIndex { return s.top }
