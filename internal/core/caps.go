package core

// Optional capability interfaces. The layer stack (backend → shard →
// durable → obs) composes through these instead of concrete-type checks:
// each layer *detects* the capability of the index below it with a type
// assertion and *exposes* the same capability above, so a batched or
// parallel fast path survives any number of wrappers. The dispatch
// helpers below fall back to generic per-record loops, which makes the
// capabilities strictly optional: every index gets the batched surface,
// capable indexes get it fast.
//
// BulkBuilder is the one capability that is not an instance method: being
// bulk-buildable is a property of an index *kind* (its constructor), so
// it lives in the kind registry (internal/registry, Kind.Bulk) rather
// than here.

// OpKind is what one Op of a batch does.
type OpKind uint8

// The three operations of a batch.
const (
	OpGet OpKind = iota
	OpPut
	OpDel
)

// Op is one operation of a batch: a get or a delete of Key, or an upsert
// of (Key, Val).
type Op struct {
	Kind OpKind
	Key  Key
	Val  Value
}

// Applier is the one batch capability: it does a batch of gets, upserts
// and deletes, in any mix, in one call with the outcome of doing its ops
// one by one in input order. vals[i], oks[i] answer a get and oks[i]
// whether a delete's key was present; the slices are caller-owned,
// len(ops) each, so a serving loop reuses its buffers and no layer
// allocates per call. sp is the request's span, nil when the request is
// not sampled: a layer that implements the capability attributes its own
// stages into it and decides whether the layer below sees it (the durable
// layer times its in-memory apply itself and passes nil down, so shard
// time is never counted twice).
//
// Over a store that logs, the writes are logged uncommitted: the caller
// (the server, once per reply flush) withholds every acknowledgement, and
// every answer that may show such a write, until Committer.Commit has
// returned nil; a batch of gets alone touches no log. The error is the
// store's — the first I/O error of the call, or the latched error of a
// store that has already failed; in-memory layers return nil. A store that
// cannot log the batch applies none of its writes, answers its gets, and
// returns the error.
type Applier interface {
	Apply(ops []Op, vals []Value, oks []bool, sp *Span) error
}

// Committer is the capability of a store that logs a write into a buffer
// when it applies it and writes the buffer out when somebody commits.
// Commit makes the whole log up to its current end durable (as durable as
// the store's sync policy makes any write), its write and fsync landing in
// sp's wal and fsync stages; its error is the store's latched one, and the
// writes it failed to log stay visible in memory, unacknowledged.
type Committer interface {
	Commit(sp *Span) error
}

// RangeSearcher collects every record with lo <= key <= hi into a slice
// in ascending key order. Implementations must return a non-nil slice
// (empty result => empty slice), the façade-wide normalization.
type RangeSearcher interface {
	SearchRange(lo, hi Key) []KV
}

// Ranger is the ordered-scan surface CollectRange falls back to, a subset
// of every index interface in the repository.
type Ranger interface {
	Range(lo, hi Key, fn func(Key, Value) bool) int
}

// Apply does ops against ix through its Applier capability when present,
// else a point loop — timed as the span's shard stage — that cannot fail.
// It answers as Applier says, into vals and oks (len(ops) each). ix is
// any mutable index of the repository.
func Apply(ix interface {
	Get(k Key) (Value, bool)
	Insert(k Key, v Value)
	Delete(k Key) bool
}, ops []Op, vals []Value, oks []bool, sp *Span) error {
	if a, ok := ix.(Applier); ok {
		return a.Apply(ops, vals, oks, sp)
	}
	defer sp.End(StageShard, sp.Begin())
	for i, op := range ops {
		switch op.Kind {
		case OpGet:
			vals[i], oks[i] = ix.Get(op.Key)
		case OpPut:
			ix.Insert(op.Key, op.Val)
		case OpDel:
			oks[i] = ix.Delete(op.Key)
		}
	}
	return nil
}

// Commit commits what Apply calls on ix left buffered; a no-op on an
// index without the capability.
func Commit(ix any, sp *Span) error {
	if c, ok := ix.(Committer); ok {
		return c.Commit(sp)
	}
	return nil
}

// CollectRange collects every record of ix with lo <= key <= hi in
// ascending key order, through the RangeSearcher capability when present
// (the sharded layer answers with its parallel cross-shard fan-out) else
// a sequential Range scan. The result is always non-nil, and an inverted
// interval yields an empty slice.
func CollectRange(ix Ranger, lo, hi Key) []KV {
	if rs, ok := ix.(RangeSearcher); ok {
		if out := rs.SearchRange(lo, hi); out != nil {
			return out
		}
		return []KV{}
	}
	out := []KV{}
	if lo > hi {
		return out
	}
	ix.Range(lo, hi, func(k Key, v Value) bool {
		out = append(out, KV{Key: k, Value: v})
		return true
	})
	return out
}
