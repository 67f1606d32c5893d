// Package core defines the shared vocabulary of the lix library: key and
// record types for one-dimensional indexes, points and rectangles for
// multi-dimensional indexes, and the bounded-search primitives that every
// learned index uses to correct model mispredictions.
//
// Learned indexes predict an approximate position for a key and then run a
// last-mile search inside an error window around the prediction. The
// SearchRange, ExponentialSearch and LowerBound helpers in this package are
// that last mile; keeping them in one place makes the cost model of every
// index in the library comparable.
package core

import (
	"fmt"
	"math"
	"strings"
)

// Key is the one-dimensional key type used across the library. SOSD and the
// surveyed learned-index papers use unsigned 64-bit keys; we follow them.
type Key = uint64

// Value is the payload associated with a key. Indexes in this library store
// fixed-size payloads, as in the SOSD benchmark (a record identifier).
type Value = uint64

// KV is a key/value record.
type KV struct {
	Key   Key
	Value Value
}

// KVSlice attaches sorting by key to a []KV.
type KVSlice []KV

func (s KVSlice) Len() int           { return len(s) }
func (s KVSlice) Less(i, j int) bool { return s[i].Key < s[j].Key }
func (s KVSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// LowerBound returns the smallest index i in keys such that keys[i] >= k,
// or len(keys) if no such index exists. keys must be sorted ascending.
func LowerBound(keys []Key, k Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the smallest index i in keys such that keys[i] > k,
// or len(keys) if no such index exists. keys must be sorted ascending.
func UpperBound(keys []Key, k Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LowerBoundKV is LowerBound over a []KV sorted by key.
func LowerBoundKV(recs []KV, k Key) int {
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if recs[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SearchRange runs LowerBound restricted to keys[lo:hi] (clamped to valid
// bounds) and returns an absolute index into keys. It is the standard
// error-window correction step after a model prediction: the model
// guarantees the true position lies in [lo, hi).
func SearchRange(keys []Key, k Key, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(keys) {
		hi = len(keys)
	}
	if lo > hi {
		lo = hi
	}
	if b := searchRec.Load(); b != nil {
		idx, probes := searchRangeCounted(keys, k, lo, hi)
		b.r.RecordSearch(probes, hi-lo)
		return idx
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SearchRangeKV is SearchRange over []KV.
func SearchRangeKV(recs []KV, k Key, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(recs) {
		hi = len(recs)
	}
	if lo > hi {
		lo = hi
	}
	if b := searchRec.Load(); b != nil {
		idx, probes := searchRangeKVCounted(recs, k, lo, hi)
		b.r.RecordSearch(probes, hi-lo)
		return idx
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if recs[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ExponentialSearch locates the lower bound of k in keys starting from a
// predicted position pos, doubling the step until the window brackets k and
// then binary-searching inside it. Cost is O(log distance(pos, true)) which
// is why ALEX and LIPP prefer it when predictions are usually near-exact.
func ExponentialSearch(keys []Key, k Key, pos int) int {
	if b := searchRec.Load(); b != nil {
		return exponentialSearchRecorded(keys, k, pos, b.r)
	}
	n := len(keys)
	if n == 0 {
		return 0
	}
	if pos < 0 {
		pos = 0
	}
	if pos >= n {
		pos = n - 1
	}
	if keys[pos] < k {
		// Gallop right.
		step := 1
		lo, hi := pos+1, pos+1
		for hi < n && keys[hi] < k {
			lo = hi + 1
			step <<= 1
			hi += step
		}
		if hi > n {
			hi = n
		}
		return SearchRange(keys, k, lo, hi)
	}
	// Gallop left.
	step := 1
	lo, hi := pos, pos
	for lo > 0 && keys[lo-1] >= k {
		hi = lo
		step <<= 1
		lo -= step
	}
	if lo < 0 {
		lo = 0
	}
	return SearchRange(keys, k, lo, hi)
}

// ExponentialSearchKV is ExponentialSearch over a []KV sorted by key.
func ExponentialSearchKV(recs []KV, k Key, pos int) int {
	if b := searchRec.Load(); b != nil {
		return exponentialSearchKVRecorded(recs, k, pos, b.r)
	}
	n := len(recs)
	if n == 0 {
		return 0
	}
	pos = Clamp(pos, 0, n-1)
	if recs[pos].Key < k {
		// Gallop right.
		step := 1
		lo, hi := pos+1, pos+1
		for hi < n && recs[hi].Key < k {
			lo = hi + 1
			step <<= 1
			hi += step
		}
		if hi > n {
			hi = n
		}
		return SearchRangeKV(recs, k, lo, hi)
	}
	// Gallop left.
	step := 1
	lo, hi := pos, pos
	for lo > 0 && recs[lo-1].Key >= k {
		hi = lo
		step <<= 1
		lo -= step
	}
	if lo < 0 {
		lo = 0
	}
	return SearchRangeKV(recs, k, lo, hi)
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ---------------------------------------------------------------------------
// Multi-dimensional vocabulary
// ---------------------------------------------------------------------------

// Point is a point in d-dimensional space. All points handled by one index
// instance must share the same dimensionality.
type Point []float64

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Sqrt(p.DistSq(q)) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Rect is an axis-aligned d-dimensional rectangle with inclusive bounds
// [Min[i], Max[i]] in every dimension i.
type Rect struct {
	Min, Max Point
}

// NewRect builds a rect from min/max corners, validating shape.
func NewRect(min, max Point) (Rect, error) {
	if len(min) != len(max) {
		return Rect{}, fmt.Errorf("core: rect corners have dims %d and %d", len(min), len(max))
	}
	for i := range min {
		if min[i] > max[i] {
			return Rect{}, fmt.Errorf("core: rect min[%d]=%g > max[%d]=%g", i, min[i], i, max[i])
		}
	}
	return Rect{Min: min, Max: max}, nil
}

// RectOf returns the degenerate rectangle containing only p.
func RectOf(p Point) Rect { return Rect{Min: p.Clone(), Max: p.Clone()} }

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// Contains reports whether p lies inside r (inclusive bounds).
func (r Rect) Contains(p Point) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s overlap (inclusive bounds).
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Min {
		if s.Max[i] < r.Min[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Expand grows r in place to cover s and returns r.
func (r Rect) Expand(s Rect) Rect {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
	return r
}

// ExpandPoint grows r in place to cover p and returns r.
func (r Rect) ExpandPoint(p Point) Rect {
	for i := range r.Min {
		if p[i] < r.Min[i] {
			r.Min[i] = p[i]
		}
		if p[i] > r.Max[i] {
			r.Max[i] = p[i]
		}
	}
	return r
}

// Area returns the d-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the sum of edge lengths of r.
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Min))
	for i := range r.Min {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// Clone deep-copies r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// MinDistSq returns the squared minimum distance from p to r (0 if inside).
// It is the standard kNN pruning bound for tree indexes.
func (r Rect) MinDistSq(p Point) float64 {
	var s float64
	for i := range r.Min {
		switch {
		case p[i] < r.Min[i]:
			d := r.Min[i] - p[i]
			s += d * d
		case p[i] > r.Max[i]:
			d := p[i] - r.Max[i]
			s += d * d
		}
	}
	return s
}

// EnlargementArea returns the increase in area of r if expanded to cover s.
func (r Rect) EnlargementArea(s Rect) float64 {
	return r.Clone().Expand(s).Area() - r.Area()
}

// PV is a point/value record for multi-dimensional indexes.
type PV struct {
	Point Point
	Value Value
}

// ---------------------------------------------------------------------------
// Index statistics
// ---------------------------------------------------------------------------

// Stats reports structural statistics common to all indexes in the library,
// used by the benchmark harness to produce the size columns of the
// experiment tables.
type Stats struct {
	// Name identifies the index implementation.
	Name string
	// Count is the number of records currently indexed.
	Count int
	// IndexBytes is the memory consumed by the index structure itself,
	// excluding the record payloads when they are stored out-of-index.
	IndexBytes int
	// DataBytes is the memory consumed by indexed records.
	DataBytes int
	// Height is the number of levels from root to data (0 for flat).
	Height int
	// Models is the number of learned models, segments, or nodes.
	Models int
}

// String renders a compact human-readable summary. Height and Models are
// omitted when zero: for those two fields zero means "not applicable"
// (flat structures have no height to speak of, baselines have no models),
// and rendering "h=0 models=0" made that indistinguishable from an index
// that simply forgot to fill them in. The always-present fields render in
// a fixed order, so the output is stable and machine-greppable.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{n=%d idx=%dB data=%dB", s.Name, s.Count, s.IndexBytes, s.DataBytes)
	if s.Height != 0 {
		fmt.Fprintf(&b, " h=%d", s.Height)
	}
	if s.Models != 0 {
		fmt.Fprintf(&b, " models=%d", s.Models)
	}
	b.WriteByte('}')
	return b.String()
}
