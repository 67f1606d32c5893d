// Package trace is the request-tracing layer of the lix engine: it follows
// one serving request group from frame decode (internal/wire) through
// dispatch (internal/serve), in-memory index work (internal/shard or the
// bare backend) and WAL append/fsync (internal/store), and turns what it
// sees into three live signals:
//
//   - per-stage latency histograms (decode_ns, dispatch_ns, shard_ns,
//     wal_ns; fsync_ns is fed by the store directly), sampled at a
//     configurable probabilistic rate, so a metrics scrape shows *where*
//     the tail lives rather than one end-to-end number;
//   - a slow-request log: any sampled request group slower than the
//     configured threshold publishes an EvSlowRequest event carrying its
//     full span timeline into the bounded obs.EventLog;
//   - hot-key telemetry: a SpaceSaving top-K sketch (topk.go) updated on
//     the read path, the sensor for hot-key caching and
//     imbalance-triggered re-sharding.
//
// The cost model follows the obs.Hook contract: with no Tracer attached,
// or with sampling disabled (rate 0), the serving hot path pays one
// atomic load and a branch per request group. Spans themselves are pooled
// and only exist for sampled groups; the type is core.Span, declared
// beside the batch capabilities that thread it through the layers.
//
// Stage durations are recorded with atomic adds, so a layer that fans work
// out across goroutines (the sharded router) can record concurrently into
// one span; a stage value is the summed duration across that parallel
// work, which can exceed the group's wall time. Stages are also
// hierarchical, not additive: dispatch covers the store calls and their
// shard and wal (framing) work, flush covers the commit in front of the
// replies — the log's write (wal) and fsync.
package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// Config tunes a Tracer.
type Config struct {
	// SampleRate is the fraction of request groups traced, in [0, 1].
	// 0 disables span sampling entirely (the disabled cost of Start is
	// one atomic load and a branch).
	SampleRate float64
	// SlowThreshold, when positive, publishes an EvSlowRequest event
	// (carrying the span timeline) for every sampled group whose total
	// time reaches it. Only sampled groups are inspected: at rate r a
	// slow request appears in the log with probability r.
	SlowThreshold time.Duration
	// TopK, when positive, enables hot-key telemetry: a SpaceSaving
	// sketch of this capacity (per hash shard) updated with every key on
	// the read path, independent of span sampling.
	TopK int
	// Metrics receives the per-stage histograms and slow-request events.
	// Required when SampleRate > 0.
	Metrics *obs.Metrics
}

// Tracer makes the sampling decision, owns the span pool and the hot-key
// sketch, and routes finished spans into an obs.Metrics bundle. All
// methods are safe for concurrent use and on a nil receiver (no-ops), so
// callers can hold an optional *Tracer without guarding every call.
type Tracer struct {
	met  *obs.Metrics
	topk *TopK

	// thresh is the sampling cut: a group is traced iff the next PRNG
	// draw is <= thresh. 0 disables, ^0 traces everything.
	thresh atomic.Uint64
	slowNS atomic.Int64
	rng    atomic.Uint64

	sampled obs.Counter
	slow    obs.Counter

	pool sync.Pool
}

// New returns a Tracer for cfg. It panics if cfg.SampleRate is positive
// without a Metrics bundle to record into (a misconfiguration, not a
// runtime condition).
func New(cfg Config) *Tracer {
	if cfg.SampleRate > 0 && cfg.Metrics == nil {
		panic("trace: Config.SampleRate > 0 requires Config.Metrics")
	}
	t := &Tracer{met: cfg.Metrics}
	t.pool.New = func() interface{} { return new(core.Span) }
	if cfg.TopK > 0 {
		t.topk = NewTopK(cfg.TopK)
	}
	t.SetSampleRate(cfg.SampleRate)
	t.SetSlowThreshold(cfg.SlowThreshold)
	return t
}

// SetSampleRate replaces the sampling rate (clamped to [0, 1]) at
// runtime.
func (t *Tracer) SetSampleRate(rate float64) {
	if t == nil {
		return
	}
	switch {
	case rate <= 0:
		t.thresh.Store(0)
	case rate >= 1:
		t.thresh.Store(^uint64(0))
	default:
		t.thresh.Store(uint64(rate * float64(math.MaxUint64)))
	}
}

// SetSlowThreshold replaces the slow-request threshold at runtime
// (0 or negative disables the slow log).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.slowNS.Store(int64(d))
}

// Enabled reports whether span sampling can currently select a group —
// the one-atomic-load fast check serving layers use to skip all span
// bookkeeping.
func (t *Tracer) Enabled() bool {
	return t != nil && t.thresh.Load() != 0
}

// HotKeys reports whether hot-key telemetry is on.
func (t *Tracer) HotKeys() bool { return t != nil && t.topk != nil }

// splitmix64 is the sampling PRNG step: cheap, stateless beyond one
// counter, and well distributed even on sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Start makes the sampling decision for one request group of ops
// requests: it returns a pooled, reset span when the group is sampled and
// nil otherwise (also on a nil tracer or rate 0). A non-nil span must be
// handed back through Finish.
func (t *Tracer) Start(ops int) *core.Span {
	if t == nil {
		return nil
	}
	th := t.thresh.Load()
	if th == 0 {
		return nil
	}
	if splitmix64(t.rng.Add(1)) > th {
		return nil
	}
	sp := t.pool.Get().(*core.Span)
	sp.Reset(ops)
	return sp
}

// Finish completes a sampled span: stage durations feed the per-stage
// histograms, the slow threshold is checked (publishing EvSlowRequest
// with the span's timeline when crossed), and the span returns to the
// pool. Nil tracer or span is a no-op.
func (t *Tracer) Finish(sp *core.Span) {
	if t == nil || sp == nil {
		return
	}
	total := sp.Total()
	t.sampled.Inc()
	if m := t.met; m != nil {
		observeStage := func(h *obs.Histogram, st core.Stage) {
			if d := sp.Stage(st); d > 0 {
				h.Observe(uint64(d))
			}
		}
		observeStage(&m.DecodeNS, core.StageDecode)
		observeStage(&m.DispatchNS, core.StageDispatch)
		observeStage(&m.ShardNS, core.StageShard)
		observeStage(&m.WalNS, core.StageWAL)
		// StageFsync deliberately does not feed m.FsyncNS: the store
		// records every group commit there already; a span's fsync time
		// is per-request attribution, visible in the timeline.
		if slow := t.slowNS.Load(); slow > 0 && int64(total) >= slow {
			t.slow.Inc()
			m.Event(obs.Event{
				Type:   obs.EvSlowRequest,
				N:      int(total),
				Detail: sp.Timeline() + " total=" + total.String(),
			})
		}
	}
	t.pool.Put(sp)
}

// Sampled returns the number of groups sampled so far.
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Slow returns the number of slow-request events published so far.
func (t *Tracer) Slow() uint64 {
	if t == nil {
		return 0
	}
	return t.slow.Load()
}

// TouchKey feeds one read-path key into the hot-key sketch (no-op when
// hot-key telemetry is off).
func (t *Tracer) TouchKey(k core.Key) {
	if t == nil || t.topk == nil {
		return
	}
	t.topk.Touch(uint64(k))
}

// TouchKeys feeds a batch of read-path keys into the hot-key sketch.
func (t *Tracer) TouchKeys(keys []core.Key) {
	if t == nil || t.topk == nil {
		return
	}
	for _, k := range keys {
		t.topk.Touch(uint64(k))
	}
}

// TopKeys returns the current top-n hot keys, hottest first (nil when
// hot-key telemetry is off).
func (t *Tracer) TopKeys(n int) []KeyCount {
	if t == nil || t.topk == nil {
		return nil
	}
	return t.topk.Top(n)
}
