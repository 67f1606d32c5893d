// Package fiting implements the FITing-tree (Galakatos et al., "FITing-Tree:
// A Data-aware Index Structure", SIGMOD 2019): the key space is segmented
// with the shrinking-cone algorithm into ε-bounded linear segments, each
// owning its sorted data run plus a small sorted insert buffer; buffers
// that overflow are merged into their segment, which is then re-segmented.
//
// Taxonomy: mutable / pure / delta-buffer insert / fixed data layout. The
// paper places a B+-tree over segment boundaries; this implementation uses
// a sorted segment directory with binary search, which is the same access
// path with the tree flattened (documented simplification).
package fiting

import (
	"fmt"
	"math"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/segment"
)

// DefaultEpsilon is the default segment error bound.
const DefaultEpsilon = 32

// DefaultBufferCap is the default per-segment insert buffer capacity.
const DefaultBufferCap = 64

type seg struct {
	firstKey core.Key
	keys     []core.Key
	vals     []core.Value
	buf      []core.KV // sorted delta buffer
	slope    float64
	base     float64 // prediction: slope*(float(k)-base) + 0, then err window
	errLo    int     // measured min/max signed error over keys
	errHi    int
}

// Index is a FITing-tree. The zero value is not usable; call Build or New.
type Index struct {
	segs   []*seg
	eps    int
	bufCap int
	size   int
	// Merges counts buffer merges (diagnostics).
	Merges int

	hook obs.Hook
}

// SetObserver installs r to receive structural events (per-segment buffer
// merges: EvBufferMerge with N = records in the re-segmented result); nil
// detaches.
func (ix *Index) SetObserver(r obs.Recorder) { ix.hook.SetRecorder(r) }

// New returns an empty index with the given error bound and buffer
// capacity (0 selects the defaults).
func New(eps, bufCap int) *Index {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if bufCap <= 0 {
		bufCap = DefaultBufferCap
	}
	return &Index{eps: eps, bufCap: bufCap}
}

// Build constructs an index over recs (sorted ascending by key, duplicate
// keys: last wins).
func Build(recs []core.KV, eps, bufCap int) (*Index, error) {
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			return nil, fmt.Errorf("fiting: input not sorted at %d", i)
		}
	}
	ix := New(eps, bufCap)
	keys := make([]core.Key, 0, len(recs))
	vals := make([]core.Value, 0, len(recs))
	for i := range recs {
		if len(keys) > 0 && keys[len(keys)-1] == recs[i].Key {
			vals[len(vals)-1] = recs[i].Value
			continue
		}
		keys = append(keys, recs[i].Key)
		vals = append(vals, recs[i].Value)
	}
	ix.segs = ix.segmentize(keys, vals)
	ix.size = len(keys)
	return ix, nil
}

// segmentize runs the shrinking-cone PLA over sorted distinct keys and
// materializes per-segment runs with measured error bounds.
func (ix *Index) segmentize(keys []core.Key, vals []core.Value) []*seg {
	if len(keys) == 0 {
		return nil
	}
	xs := make([]float64, len(keys))
	for i, k := range keys {
		xs[i] = float64(k)
	}
	plas := segment.BuildAnchored(xs, segment.Positions(len(keys)), float64(ix.eps))
	out := make([]*seg, 0, len(plas))
	for _, p := range plas {
		s := &seg{
			firstKey: keys[p.StartIdx],
			keys:     append([]core.Key(nil), keys[p.StartIdx:p.EndIdx]...),
			vals:     append([]core.Value(nil), vals[p.StartIdx:p.EndIdx]...),
			slope:    p.Slope,
			base:     p.FirstKey,
		}
		s.measureError()
		out = append(out, s)
	}
	return out
}

// measureError records the min/max signed prediction error over the run.
func (s *seg) measureError() {
	s.errLo, s.errHi = 0, 0
	for i, k := range s.keys {
		e := i - s.predict(k)
		if e < s.errLo {
			s.errLo = e
		}
		if e > s.errHi {
			s.errHi = e
		}
	}
}

// predict returns the model's (unclamped) local position for k.
func (s *seg) predict(k core.Key) int {
	return int(math.Round(s.slope * (float64(k) - s.base)))
}

// lowerIdx returns the first index i in s.keys with keys[i] >= k using the
// error-bounded window.
func (s *seg) lowerIdx(k core.Key) int {
	if len(s.keys) == 0 {
		return 0
	}
	if k > s.keys[len(s.keys)-1] {
		return len(s.keys)
	}
	p := s.predict(k)
	lo := core.Clamp(p+s.errLo-1, 0, len(s.keys))
	hi := core.Clamp(p+s.errHi+2, lo, len(s.keys))
	// The measured bounds hold for stored keys; for probes between stored
	// keys monotonicity (slope >= 0 by cone construction on ranks) keeps
	// the window valid. Guard against pathological negative slopes anyway.
	if s.slope < 0 {
		lo, hi = 0, len(s.keys)
	}
	return core.SearchRange(s.keys, k, lo, hi)
}

// locate returns the index of the segment owning k (last firstKey <= k).
func (ix *Index) locate(k core.Key) int {
	lo, hi := 0, len(ix.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.segs[mid].firstKey <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// Len returns the number of records.
func (ix *Index) Len() int { return ix.size }

// SegmentCount returns the number of segments.
func (ix *Index) SegmentCount() int { return len(ix.segs) }

// Get returns the value stored for k.
func (ix *Index) Get(k core.Key) (core.Value, bool) {
	if len(ix.segs) == 0 {
		return 0, false
	}
	s := ix.segs[ix.locate(k)]
	// Buffer first: it holds the newest version.
	if i := core.LowerBoundKV(s.buf, k); i < len(s.buf) && s.buf[i].Key == k {
		return s.buf[i].Value, true
	}
	if i := s.lowerIdx(k); i < len(s.keys) && s.keys[i] == k {
		return s.vals[i], true
	}
	return 0, false
}

// Insert upserts (k, v).
func (ix *Index) Insert(k core.Key, v core.Value) {
	if len(ix.segs) == 0 {
		ix.segs = []*seg{{firstKey: k, keys: []core.Key{k}, vals: []core.Value{v}}}
		ix.size = 1
		return
	}
	s := ix.segs[ix.locate(k)]
	// Upsert in base run.
	if i := s.lowerIdx(k); i < len(s.keys) && s.keys[i] == k {
		// Buffer may shadow; check it first.
		if j := core.LowerBoundKV(s.buf, k); j < len(s.buf) && s.buf[j].Key == k {
			s.buf[j].Value = v
			return
		}
		s.vals[i] = v
		return
	}
	// Upsert in buffer.
	j := core.LowerBoundKV(s.buf, k)
	if j < len(s.buf) && s.buf[j].Key == k {
		s.buf[j].Value = v
		return
	}
	s.buf = append(s.buf, core.KV{})
	copy(s.buf[j+1:], s.buf[j:])
	s.buf[j] = core.KV{Key: k, Value: v}
	ix.size++
	if len(s.buf) > ix.bufCap {
		ix.merge(s)
	}
}

// merge folds a segment's buffer into its run and re-segments the result.
func (ix *Index) merge(s *seg) {
	keys := make([]core.Key, 0, len(s.keys)+len(s.buf))
	vals := make([]core.Value, 0, len(s.keys)+len(s.buf))
	core.MergeNewestFirst([]int{len(s.buf), len(s.keys)}, s.key, func(src, from, to int) bool {
		if src == 1 {
			keys, vals = append(keys, s.keys[from:to]...), append(vals, s.vals[from:to]...)
			return true
		}
		for _, r := range s.buf[from:to] {
			keys, vals = append(keys, r.Key), append(vals, r.Value)
		}
		return true
	})
	repl := ix.segmentize(keys, vals)
	// Splice repl in place of s.
	pos := ix.locate(s.firstKey)
	out := make([]*seg, 0, len(ix.segs)-1+len(repl))
	out = append(out, ix.segs[:pos]...)
	out = append(out, repl...)
	out = append(out, ix.segs[pos+1:]...)
	ix.segs = out
	ix.Merges++
	ix.hook.Emit(obs.EvBufferMerge, len(keys), "segment")
}

// Delete removes k, returning true if present.
func (ix *Index) Delete(k core.Key) bool {
	if len(ix.segs) == 0 {
		return false
	}
	s := ix.segs[ix.locate(k)]
	if j := core.LowerBoundKV(s.buf, k); j < len(s.buf) && s.buf[j].Key == k {
		s.buf = append(s.buf[:j], s.buf[j+1:]...)
		ix.size--
		return true
	}
	if i := s.lowerIdx(k); i < len(s.keys) && s.keys[i] == k {
		s.keys = append(s.keys[:i], s.keys[i+1:]...)
		s.vals = append(s.vals[:i], s.vals[i+1:]...)
		ix.size--
		if len(s.keys) == 0 && len(s.buf) == 0 && len(ix.segs) > 1 {
			pos := ix.locate(s.firstKey)
			ix.segs = append(ix.segs[:pos], ix.segs[pos+1:]...)
			return true
		}
		// Positions shifted: re-measure the model's error bounds.
		s.measureError()
		return true
	}
	return false
}

// Range calls fn for records with lo <= key <= hi ascending; fn returning
// false stops. Returns records visited.
func (ix *Index) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	if len(ix.segs) == 0 {
		return 0
	}
	count := 0
	for si := ix.locate(lo); si < len(ix.segs); si++ {
		s := ix.segs[si]
		if len(s.keys) > 0 && s.keys[0] > hi && (len(s.buf) == 0 || s.buf[0].Key > hi) {
			break
		}
		// The segment from lo: its run and buffer from their first keys >= lo.
		i, j := s.lowerIdx(lo), core.LowerBoundKV(s.buf, lo)
		w := &seg{keys: s.keys[i:], vals: s.vals[i:], buf: s.buf[j:]}
		stop := false
		core.MergeNewestFirst([]int{len(w.buf), len(w.keys)}, w.key, func(src, from, to int) bool {
			for x := from; x < to; x++ {
				k, v := w.rec(src, x)
				if stop = k > hi; stop {
					return false
				}
				count++
				if stop = !fn(k, v); stop {
					return false
				}
			}
			return true
		})
		if stop {
			break
		}
	}
	return count
}

// key returns the i-th key of merge source src of s: the buffer, which is
// newer, when src is 0, else the run.
func (s *seg) key(src, i int) core.Key {
	if src == 0 {
		return s.buf[i].Key
	}
	return s.keys[i]
}

// rec returns the i-th record of merge source src (as key numbers them).
func (s *seg) rec(src, i int) (core.Key, core.Value) {
	if src == 0 {
		return s.buf[i].Key, s.buf[i].Value
	}
	return s.keys[i], s.vals[i]
}

// Stats reports structure statistics.
func (ix *Index) Stats() core.Stats {
	var bufRecs int
	for _, s := range ix.segs {
		bufRecs += len(s.buf)
	}
	return core.Stats{
		Name:       "fiting",
		Count:      ix.size,
		IndexBytes: len(ix.segs)*(8*4+24*3) + bufRecs*16,
		DataBytes:  16 * ix.size,
		Height:     2,
		Models:     len(ix.segs),
	}
}
