package lix

import (
	"bytes"
	"io"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// Observability types, re-exported from internal/obs for the public API.
type (
	// Metrics is an allocation-free, concurrency-safe metrics bundle: op
	// counters, log2-bucketed latency/probe/window histograms, and a
	// structural event log.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time, JSON-serializable view of a
	// Metrics bundle.
	MetricsSnapshot = obs.Snapshot
	// HistogramSummary summarizes one histogram inside a MetricsSnapshot.
	HistogramSummary = obs.HistogramSummary
	// Event is one structural event (retrain, split, flush, ...).
	Event = obs.Event
	// EventType enumerates the structural event kinds.
	EventType = obs.EventType
	// DriftDetector consumes a per-operation cost stream and reports when
	// the distribution shifted. drift.EWMA and drift.PageHinkley satisfy it.
	DriftDetector = obs.DriftDetector
)

// SampleEvery is N in the 1-in-N latency sample of the point-operation
// histograms (get_ns, insert_ns, delete_ns); see ObservedIndex.
const SampleEvery = obs.SampleEvery

// Structural event kinds re-exported from internal/obs.
const (
	EvRetrain     = obs.EvRetrain
	EvNodeSplit   = obs.EvNodeSplit
	EvBufferFlush = obs.EvBufferFlush
	EvBufferMerge = obs.EvBufferMerge
	EvCompaction  = obs.EvCompaction
	EvRCUSwap     = obs.EvRCUSwap
	EvDriftTrip   = obs.EvDriftTrip
	EvCheckpoint  = obs.EvCheckpoint
	EvWALFlush    = obs.EvWALFlush
	EvRecovery    = obs.EvRecovery
	EvDrain       = obs.EvDrain
	EvSlowRequest = obs.EvSlowRequest
	EvPageEvict   = obs.EvPageEvict
	EvPageFlush   = obs.EvPageFlush
)

// NewMetrics returns an empty metrics bundle named name (the name labels
// expvar/Prometheus output and event sources).
func NewMetrics(name string) *Metrics { return obs.NewMetrics(name) }

// EnableSearchMetrics routes the last-mile search instrumentation of every
// index in the process (probe counts and error-window widths from
// core.SearchRange / ExponentialSearch) into m. The instrumentation is
// process-wide because the search helpers are shared by all indexes; with
// no recorder installed they pay one atomic load + branch (~1-2 ns, see
// DESIGN.md). Pass the same bundle to Observe to correlate searches with
// the ops that issued them.
func EnableSearchMetrics(m *Metrics) { core.SetSearchRecorder(m) }

// DisableSearchMetrics detaches the process-wide search recorder.
func DisableSearchMetrics() { core.SetSearchRecorder(nil) }

// observable is satisfied by every instrumented index (ALEX, LIPP, dynamic
// PGM, FITing-tree, XIndex, learned LSM) through their adapters.
type observable interface {
	SetObserver(obs.Recorder)
}

// ObservedIndex wraps an Index, recording per-op latency and result
// cardinality into a Metrics bundle. Reads pass through unchanged.
//
// Point-operation latency is sampled. Get (and Insert/Delete on
// ObservedMutableIndex) bump their operation counters on every call, so
// lookups, hits, inserts and deletes are exact and rates come from them;
// the clock is read, and get_ns / insert_ns / delete_ns fed, on one call
// in SampleEvery. Those histograms hold a uniform sample: quantiles and
// mean are unbiased, Count is the number of samples. Range, SearchRange
// and Apply do microseconds of work per call and stay timed on every call.
type ObservedIndex struct {
	idx Index
	m   *Metrics
}

// Observe wraps idx so Get and Range record latency, hit/miss and result
// cardinality into m (Get latency as a 1-in-SampleEvery sample, see
// ObservedIndex). If the underlying index emits structural events
// (splits, retrains, flushes, ...), those are routed into m.Events as
// well. The wrapper is behavior-transparent: results are identical to the
// unwrapped index (the conformance suite asserts this for every
// registered index kind).
func Observe(idx Index, m *Metrics) *ObservedIndex {
	if o, ok := idx.(observable); ok {
		o.SetObserver(m)
	}
	return &ObservedIndex{idx: idx, m: m}
}

// Unwrap returns the wrapped index.
func (o *ObservedIndex) Unwrap() Index { return o.idx }

// Metrics returns the bundle this wrapper records into.
func (o *ObservedIndex) Metrics() *Metrics { return o.m }

// Get returns the value stored for k. The lookups and hits counters are
// exact; the latency lands in get_ns on one call in SampleEvery (see
// ObservedIndex).
func (o *ObservedIndex) Get(k Key) (Value, bool) {
	t := o.m.Lookups.IncSampled()
	v, ok := o.idx.Get(k)
	t.Observe(&o.m.GetNS)
	if ok {
		o.m.Hits.Inc()
	}
	return v, ok
}

// Range scans [lo, hi], recording latency and result cardinality.
func (o *ObservedIndex) Range(lo, hi Key, fn func(Key, Value) bool) int {
	start := time.Now()
	n := o.idx.Range(lo, hi, fn)
	o.m.RangeNS.Observe(uint64(time.Since(start)))
	o.m.RangeLen.Observe(uint64(n))
	o.m.Ranges.Inc()
	return n
}

// SearchRange collects [lo, hi] through the wrapped index's RangeSearcher
// capability (so a wrapped Sharded keeps its parallel cross-shard
// fan-out), recording latency and result cardinality.
func (o *ObservedIndex) SearchRange(lo, hi Key) []KV {
	start := time.Now()
	out := core.CollectRange(o.idx, lo, hi)
	o.m.RangeNS.Observe(uint64(time.Since(start)))
	o.m.RangeLen.Observe(uint64(len(out)))
	o.m.Ranges.Inc()
	return out
}

// add adds n to c, skipping the atomic add when there is nothing to count.
func add(c *obs.Counter, n int) {
	if n > 0 {
		c.Add(uint64(n))
	}
}

// Close forwards the io.Closer capability, so a wrapped Durable can be
// closed without unwrapping. Indexes without the capability close as a
// no-op.
func (o *ObservedIndex) Close() error {
	if c, ok := o.idx.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Len returns the number of records (not recorded).
func (o *ObservedIndex) Len() int { return o.idx.Len() }

// Stats forwards to the wrapped index (not recorded).
func (o *ObservedIndex) Stats() Stats { return o.idx.Stats() }

// CheckInvariants forwards to the wrapped index's structural self-check,
// so lix.CheckInvariants sees through the wrapper.
func (o *ObservedIndex) CheckInvariants() error { return CheckInvariants(o.idx) }

// ObservedMutableIndex additionally records Insert and Delete.
type ObservedMutableIndex struct {
	ObservedIndex
	mut MutableIndex
}

// ObserveMutable is Observe for updatable indexes: Insert and Delete
// latencies are recorded too.
func ObserveMutable(idx MutableIndex, m *Metrics) *ObservedMutableIndex {
	if o, ok := idx.(observable); ok {
		o.SetObserver(m)
	}
	return &ObservedMutableIndex{ObservedIndex: ObservedIndex{idx: idx, m: m}, mut: idx}
}

// Insert upserts (k, v): the inserts counter is exact, insert_ns is a
// 1-in-SampleEvery sample.
func (o *ObservedMutableIndex) Insert(k Key, v Value) {
	t := o.m.Inserts.IncSampled()
	o.mut.Insert(k, v)
	t.Observe(&o.m.InsertNS)
}

// Delete removes k: the deletes counter is exact, delete_ns is a
// 1-in-SampleEvery sample.
func (o *ObservedMutableIndex) Delete(k Key) bool {
	t := o.m.Deletes.IncSampled()
	ok := o.mut.Delete(k)
	t.Observe(&o.m.DeleteNS)
	return ok
}

// Apply does a batch of gets, upserts and deletes through the wrapped
// index's batch capability when it has one (uncommitted over a durable
// index below), forwarding the span — so a Durable or Sharded below this
// wrapper attributes its own stages — and the store's error. It is
// recorded as one batch from two clock reads (a failed batch still counts
// as attempted), each family's count and the gets' hits added to its
// counter.
func (o *ObservedMutableIndex) Apply(ops []Op, vals []Value, oks []bool, sp *Span) error {
	start := time.Now()
	err := core.Apply(o.mut, ops, vals, oks, sp)
	o.m.BatchNS.Observe(uint64(time.Since(start)))
	o.m.BatchLen.Observe(uint64(len(ops)))
	o.m.Batches.Inc()
	var gets, puts, hits int
	for i := range ops {
		switch ops[i].Kind {
		case OpGet:
			gets++
			if oks[i] {
				hits++
			}
		case OpPut:
			puts++
		}
	}
	add(&o.m.Lookups, gets)
	add(&o.m.Hits, hits)
	add(&o.m.Inserts, puts)
	add(&o.m.Deletes, len(ops)-gets-puts)
	return err
}

// Commit commits what Apply left in the log's buffer; a no-op over an
// index that keeps no log.
func (o *ObservedMutableIndex) Commit(sp *Span) error { return core.Commit(o.mut, sp) }

// WriteMetricsPrometheus renders the given bundles in Prometheus text
// exposition format (stdlib only, no client dependency).
func WriteMetricsPrometheus(w io.Writer, ms ...*Metrics) error {
	return obs.WritePrometheusAll(w, ms...)
}

// MetricsFlusher periodically writes a Prometheus snapshot file via
// atomic temp-file+rename replacement, so an exposition dump survives a
// crash between scrapes. See NewMetricsFlusher.
type MetricsFlusher = obs.Flusher

// NewMetricsFlusher returns a flusher rendering ms to path in Prometheus
// text format. Call Start to begin the periodic ticker (interval <= 0
// disables it) and Stop for the final flush — with no interval that
// preserves the classic write-once-at-exit snapshot behavior.
func NewMetricsFlusher(path string, interval time.Duration, ms ...*Metrics) *MetricsFlusher {
	return obs.NewFlusher(path, interval, func(buf *bytes.Buffer) error {
		return obs.WritePrometheusAll(buf, ms...)
	})
}
