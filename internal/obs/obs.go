// Package obs is the observability layer of the lix library: low-overhead,
// concurrency-safe primitives that record what a learned index actually
// does under traffic — per-operation latencies, last-mile search probe
// counts and error-window widths, structural maintenance events (retrains,
// node splits, buffer flushes and merges, LSM compactions, RCU root swaps)
// and drift-detector trips.
//
// The design constraints come straight from the paper's cost model
// (predict, then run a bounded last-mile search) and its §6 open
// challenges: the quantities that decide when to retrain, how expensive an
// insert strategy is, and whether concurrency is paying off are all
// per-operation measurements on hot paths, so every primitive here is
// allocation-free on the write path and must cost nothing measurable when
// instrumentation is disabled.
//
//   - Counter is a cache-line-sharded atomic counter: concurrent writers
//     spread across shards instead of bouncing one cache line.
//   - Histogram buckets observations by log₂(value): 65 fixed buckets cover
//     the full uint64 range, so one histogram type serves probe counts
//     (0..64), window widths, result cardinalities and latencies in
//     nanoseconds alike. It is striped the same way as Counter.
//   - Counter.IncSampled / OpTimer time one point operation in SampleEvery,
//     so the per-call cost of an observed Get is counter increments, not a
//     clock pair.
//   - EventLog is a typed, bounded event stream with per-type totals.
//   - Metrics bundles the histograms and counters one observed index needs
//     and renders them as a Snapshot, expvar variable, or Prometheus text.
//
// The hot-path hook protocol is the Recorder interface plus the Hook
// holder: an index embeds a Hook (one atomic pointer) and calls
// Hook.Emit / Hook.Recorder on its structural and search paths; when no
// recorder is attached the cost is a single atomic load and branch.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// Stripes is the number of cache-line-padded stripes per Counter and
// Histogram, and the range of StripeHint. Must be a power of two.
const Stripes = 8

type counterShard struct {
	n atomic.Uint64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a sharded atomic counter. The zero value is ready to use.
// Concurrent Add calls from different goroutines usually land on different
// shards (selected by stack address), avoiding the cache-line ping-pong of
// a single atomic word under write-heavy load.
type Counter struct {
	shards [Stripes]counterShard
}

// StripeHint derives a cheap goroutine-affine stripe index in [0, Stripes)
// from the address of a live stack variable: goroutines have distinct
// stacks, so concurrent writers spread across stripes without any runtime
// support. Bits below 2 KB, the smallest stack, are dropped because frames
// of one goroutine share them; the bits above are folded down three at a
// time, because a stack is aligned to its size: two 2 KB stacks share a
// 4 KB page, and two stacks of 32 KB or more agree in every bit below
// their size at equal call depth.
//
// It is exported for the one other striped word on the read path, the
// reader counts of the shard layer's lock. Two goroutines draw the same
// stripe about one time in Stripes, and then share it for as long as their
// stacks stay put, on every Counter and every lock alike: forced on the
// repo benchmark's two callers it cost 15 % of their rate.
func StripeHint(addr uintptr) int {
	x := addr >> 11
	x ^= x >> 3
	x ^= x >> 6
	x ^= x >> 12
	return int(x) & (Stripes - 1)
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	c.shards[StripeHint(uintptr(unsafe.Pointer(&n)))].n.Add(n)
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current total. It is a consistent sum only when no
// writer is concurrently active; under concurrency it is a live snapshot,
// which is the usual contract for monitoring counters.
func (c *Counter) Load() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// SampleEvery is N in the 1-in-N latency sample the point-operation
// wrappers take (ObservedIndex.Get, ObservedMutableIndex.Insert/Delete
// and the sharded layer's per-shard bundles): the operation counters stay
// exact on every call, while the clock is read and get_ns / insert_ns /
// delete_ns are fed on one call in SampleEvery. A clock pair costs about
// as much as the bounded last-mile search it would be timing, so timing
// every call taxed each lookup by a quarter. It is a constant, not a
// setting: quantiles and means of a uniform sample are unbiased at any N,
// and at 8 the amortized clock already costs less than the two counter
// increments every call still makes.
const SampleEvery = 1 << sampleShift

const sampleShift = 3

// sampled reports whether the n-th increment (0-based) of one counter
// stripe is a timed one. Every aligned block of SampleEvery consecutive
// increments holds exactly one, at an offset hashed from the block
// number: the sample count is exact to within one per stripe, and no
// periodic call pattern — a slow call every SampleEvery-th operation,
// say — can line up with the timed slot the way it would with
// n%SampleEvery == 0.
func sampled(n uint64) bool {
	x := (n >> sampleShift) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	x *= 0xBF58476D1CE4E5B9
	return n&(SampleEvery-1) == x>>(64-sampleShift)
}

// clockBase anchors OpTimer's monotonic readings: time.Since on a Time
// carrying a monotonic reading is one clock read, where time.Now is two
// (wall and monotonic).
var clockBase = time.Now()

// OpTimer is one call's share of a sampled latency stream. The zero value
// means "this call is not timed" and makes Observe a no-op.
type OpTimer struct {
	start time.Duration // since clockBase; 0 = not timed
}

// IncSampled adds 1 to the counter and starts a timer on one call in
// SampleEvery. The decision comes from the stripe-local value the
// increment returns, so sampling shares no word between goroutines beyond
// the counter itself and draws no random number.
func (c *Counter) IncSampled() OpTimer {
	var probe byte
	n := c.shards[StripeHint(uintptr(unsafe.Pointer(&probe)))].n.Add(1)
	if !sampled(n - 1) {
		return OpTimer{}
	}
	return OpTimer{start: time.Since(clockBase) | 1}
}

// Observe records the time since the timer started into h; on an untimed
// call it does nothing (and inlines to one compare in the caller).
func (t OpTimer) Observe(h *Histogram) {
	if t.start != 0 {
		t.observe(h)
	}
}

func (t OpTimer) observe(h *Histogram) {
	h.Observe(uint64(time.Since(clockBase) - t.start))
}

// Gauge is an atomic up/down level indicator (open connections, in-flight
// groups). The zero value is ready to use. Unlike Counter it is a single
// atomic word: gauges are read as often as written and stay low-frequency,
// so cache-line sharding would only blur the level.
type Gauge struct {
	v atomic.Int64
}

// Inc raises the gauge by 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the gauge by 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add moves the gauge by n (negative to lower).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge's level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of log₂ buckets: bucket i holds observations v
// with bits.Len64(v) == i, i.e. bucket 0 is exactly v==0 and bucket i>=1
// covers [2^(i-1), 2^i). 65 buckets span the whole uint64 range.
const histBuckets = 65

// histStripe is one writer stripe of a Histogram. There is no count word:
// the count is the sum of the buckets, so an observation is two atomic
// adds and a max check. The pad rounds the stripe to a whole number of
// 64-byte cache lines, keeping neighbouring stripes' hot words apart.
type histStripe struct {
	sum atomic.Uint64
	max atomic.Uint64
	bkt [histBuckets]atomic.Uint64
	_   [40]byte
}

// Histogram is a log₂-bucketed histogram of uint64 observations, striped
// like Counter: concurrent writers usually land on different stripes
// (selected by stack address) instead of bouncing one cache line, and
// Snapshot sums the stripes. The zero value is ready to use; Observe is
// allocation-free and safe for concurrent use.
type Histogram struct {
	stripes [Stripes]histStripe
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v — exactly what n Observe(v) calls
// leave in the snapshot — for callers that attribute one measurement to
// a run of n operations.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	s := &h.stripes[StripeHint(uintptr(unsafe.Pointer(&v)))]
	s.sum.Add(v * n)
	s.bkt[bits.Len64(v)].Add(n)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.Snapshot().Count }

// Snapshot returns a point-in-time copy of the histogram. Under concurrent
// writers the copy is a live snapshot, not an atomic cut; Count is derived
// from the copied buckets, so the two always agree.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		s.Sum += st.sum.Load()
		if m := st.max.Load(); m > s.Max {
			s.Max = m
		}
		for b := range st.bkt {
			n := st.bkt[b].Load()
			s.Buckets[b] += n
			s.Count += n
		}
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1); see HistSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) uint64 { return h.Snapshot().Quantile(q) }

// HistSnapshot is a point-in-time copy of a Histogram, suitable for JSON
// encoding and offline quantile estimation.
type HistSnapshot struct {
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Max     uint64              `json:"max"`
	Buckets [histBuckets]uint64 `json:"buckets"`
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Quantile estimates the q-quantile by walking the cumulative bucket
// counts and reporting the matched bucket's upper bound (clamped to the
// observed maximum, which makes the estimate exact for the tail bucket).
// The log₂ bucketing bounds the relative error by 2x, which is the usual
// monitoring trade: cheap enough for a hot path, accurate enough for p50
// vs p99 comparisons.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count-1))
	var cum uint64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum > rank {
			u := BucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}
