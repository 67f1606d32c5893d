// Package pgm implements the PGM-index of Ferragina and Vinciguerra
// ("The PGM-index: a fully-dynamic compressed learned index with provable
// worst-case bounds", PVLDB 2020): a recursive hierarchy of ε-bounded
// piecewise linear models, plus the fully dynamic variant based on the
// logarithmic method (an LSM of static PGM-indexes with delta buffering —
// taxonomy: mutable / pure / delta buffer / fixed layout).
//
// Unlike the RMI, every level of the PGM carries a provable error bound ε:
// a lookup does O(log_ε n) model evaluations, each followed by a binary
// search over at most 2ε+3 elements — the worst case holds for adversarial
// key sets too (paper §6.7).
package pgm

import (
	"fmt"
	"math"
	"sort"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/segment"
)

// DefaultEpsilon is the default per-level error bound.
const DefaultEpsilon = 32

// level is one layer of the recursive PLA hierarchy.
type level struct {
	segs      []segment.Segment
	firstKeys []float64 // FirstKey of each segment, for windowed search
}

// Index is a static PGM-index over a sorted record array.
type Index struct {
	recs []core.KV // nil for an index built by BuildKeys
	keys []core.Key

	// Level 0 maps a key, as a float64, to a position in keys: its
	// segments' StartIdx/EndIdx are key positions and a key's first
	// occurrence lies within ε of its prediction, so duplicate keys cost
	// nothing per key. Only when distinct keys collide in float64 (above
	// 2⁵³) does level 0 predict an index into distinct, the keys' ascending
	// float values, with firstPos[i] the first key position of distinct[i]:
	// a model over key positions would have to rise a whole collision run
	// between float neighbours, a slope float64 cannot resolve that far
	// from a segment's start.
	distinct []float64
	firstPos []int32

	levels []level // higher levels predict segment indices of the level below
	eps    int
	n      int
}

// Build constructs a PGM-index over recs (sorted ascending by key) with the
// given error bound (0 selects DefaultEpsilon). recs is retained.
func Build(recs []core.KV, eps int) (*Index, error) {
	keys := make([]core.Key, len(recs))
	for i := range recs {
		keys[i] = recs[i].Key
	}
	ix, err := BuildKeys(keys, eps)
	if err != nil {
		return nil, err
	}
	ix.recs = recs
	return ix, nil
}

// BuildKeys constructs a PGM-index over a sorted key column alone, for
// callers that keep their records elsewhere and want only LowerBound: the
// value of the key at position i is i. keys is retained, not copied.
func BuildKeys(keys []core.Key, eps int) (*Index, error) {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	n := len(keys)
	for i := 1; i < n; i++ {
		if keys[i] < keys[i-1] {
			return nil, fmt.Errorf("pgm: input not sorted at %d", i)
		}
	}
	ix := &Index{keys: keys, eps: eps, n: n}
	if n == 0 {
		return ix, nil
	}
	// Level 0: PLA over (distinct float64 key -> first position in keys),
	// or -> index into distinct when distinct keys collide in float64.
	xs, ys, collide := modelPoints(keys)
	if collide {
		ix.distinct, ix.firstPos = xs, make([]int32, len(ys))
		for i, y := range ys {
			ix.firstPos[i] = int32(y)
		}
		ys = segment.Positions(len(xs))
	}
	segs := segment.BuildOptimal(xs, ys, float64(eps))
	if !collide {
		for i := range segs {
			segs[i].StartIdx = int(ys[segs[i].StartIdx])
			if segs[i].EndIdx < len(ys) {
				segs[i].EndIdx = int(ys[segs[i].EndIdx])
			} else {
				segs[i].EndIdx = n
			}
		}
	}
	ix.levels = append(ix.levels, newLevel(segs))
	// Recursive levels over segment first keys until a single segment.
	for len(ix.levels[len(ix.levels)-1].segs) > 1 {
		prev := ix.levels[len(ix.levels)-1]
		xs := prev.firstKeys
		segs := segment.BuildOptimal(xs, segment.Positions(len(xs)), float64(eps))
		ix.levels = append(ix.levels, newLevel(segs))
		if len(segs) >= len(xs) {
			// No compression: stop to guarantee termination (degenerate
			// data); the top level is then searched in full.
			break
		}
	}
	return ix, nil
}

// modelPoints returns level 0's points: each distinct float64 value of the
// sorted keys and the position of its first occurrence, and whether two
// distinct keys share a float64 value.
func modelPoints(keys []core.Key) (xs, ys []float64, collide bool) {
	xs, ys = make([]float64, 0, len(keys)), make([]float64, 0, len(keys))
	for i, k := range keys {
		if x := float64(k); i == 0 || x != xs[len(xs)-1] {
			xs, ys = append(xs, x), append(ys, float64(i))
		} else if k != keys[i-1] {
			collide = true
		}
	}
	return xs, ys, collide
}

func newLevel(segs []segment.Segment) level {
	fk := make([]float64, len(segs))
	for i := range segs {
		fk[i] = segs[i].FirstKey
	}
	return level{segs: segs, firstKeys: fk}
}

// Epsilon returns the error bound.
func (ix *Index) Epsilon() int { return ix.eps }

// Len returns the number of records.
func (ix *Index) Len() int { return ix.n }

// Levels returns the number of PLA levels.
func (ix *Index) Levels() int { return len(ix.levels) }

// SegmentCount returns the number of level-0 segments.
func (ix *Index) SegmentCount() int {
	if len(ix.levels) == 0 {
		return 0
	}
	return len(ix.levels[0].segs)
}

// segUpperBound returns the last index j in fk[lo:hi) (clamped) with
// fk[j] <= x, or lo if none.
func segUpperBound(fk []float64, x float64, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if lo > len(fk) {
		lo = len(fk)
	}
	if hi > len(fk) {
		hi = len(fk)
	}
	if hi < lo {
		hi = lo
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fk[mid] <= x {
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

// locate returns the level-0 segment index covering key x by descending the
// hierarchy with ε-bounded windowed searches.
func (ix *Index) locate(x float64) int {
	top := len(ix.levels) - 1
	// Top level: search among all segments (there is 1, or few in the
	// degenerate no-compression case).
	si := segUpperBound(ix.levels[top].firstKeys, x, 0, len(ix.levels[top].segs))
	for l := top; l > 0; l-- {
		s := &ix.levels[l].segs[si]
		if x > s.LastKey {
			// x lies in the key gap between this segment and the next one
			// at this level, so the answer below is exactly the last entry
			// this segment covers; the model must not extrapolate.
			si = s.EndIdx - 1
			continue
		}
		pred := int(math.Round(s.Predict(x)))
		lo := pred - ix.eps - 1
		hi := pred + ix.eps + 2
		if lo < s.StartIdx {
			lo = s.StartIdx
		}
		if hi > s.EndIdx {
			hi = s.EndIdx
		}
		si = segUpperBound(ix.levels[l-1].firstKeys, x, lo, hi)
	}
	return si
}

// LowerBound returns the smallest position i in the record array with
// keys[i] >= k.
func (ix *Index) LowerBound(k core.Key) int {
	if ix.n == 0 {
		return 0
	}
	x := float64(k)
	s := &ix.levels[0].segs[ix.locate(x)]
	if x > s.LastKey {
		// In the gap after this segment: the lower bound is the first key
		// of the next segment (or the end of the array).
		return ix.keyPos(s.EndIdx)
	}
	pred := int(math.Round(s.Predict(x)))
	lo := core.Clamp(pred-ix.eps-1, s.StartIdx, s.EndIdx)
	hi := core.Clamp(pred+ix.eps+2, lo, s.EndIdx)
	if ix.distinct != nil {
		// The first distinct float at or above x, then the exact position
		// among the keys that share it.
		d := lo + sort.SearchFloat64s(ix.distinct[lo:hi], x)
		return core.SearchRange(ix.keys, k, ix.keyPos(d), ix.keyPos(d+1))
	}
	// The model bounds a key's first occurrence; a run of equal keys longer
	// than the window can put the answer past either end of it, so a
	// neighbour of the window that shows this widens the search to the
	// rest of the segment on that side. SearchRange
	// reports the probes of the ε-bounded window, the paper's last-mile
	// correction cost, to a search recorder when one is installed.
	switch {
	case lo > s.StartIdx && ix.keys[lo-1] >= k:
		lo, hi = s.StartIdx, lo-1
	case hi < s.EndIdx && ix.keys[hi] < k:
		lo, hi = hi+1, s.EndIdx
	}
	return core.SearchRange(ix.keys, k, lo, hi)
}

// keyPos returns the key position of level 0's target d.
func (ix *Index) keyPos(d int) int {
	switch {
	case ix.firstPos == nil:
		return d
	case d < len(ix.firstPos):
		return int(ix.firstPos[d])
	}
	return ix.n
}

// value returns the value at position i.
func (ix *Index) value(i int) core.Value {
	if ix.recs == nil {
		return core.Value(i)
	}
	return ix.recs[i].Value
}

// Get returns the value stored for k.
func (ix *Index) Get(k core.Key) (core.Value, bool) {
	i := ix.LowerBound(k)
	if i < ix.n && ix.keys[i] == k {
		return ix.value(i), true
	}
	return 0, false
}

// Range calls fn for records with lo <= key <= hi ascending; fn returning
// false stops. Returns records visited.
func (ix *Index) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	i := ix.LowerBound(lo)
	count := 0
	for ; i < ix.n && ix.keys[i] <= hi; i++ {
		count++
		if !fn(ix.keys[i], ix.value(i)) {
			break
		}
	}
	return count
}

// Stats reports structure statistics. IndexBytes counts the PLA levels and
// the arrays kept for keys that collide in float64.
func (ix *Index) Stats() core.Stats {
	segs := 0
	for _, l := range ix.levels {
		segs += len(l.segs)
	}
	return core.Stats{
		Name:       "pgm",
		Count:      ix.n,
		IndexBytes: segs*(segment.SegmentBytes+8) + 12*len(ix.distinct),
		DataBytes:  16 * ix.n,
		Height:     len(ix.levels),
		Models:     segs,
	}
}

// ---------------------------------------------------------------------------
// Dynamic PGM (logarithmic method)
// ---------------------------------------------------------------------------

// Dynamic is the fully-dynamic PGM-index: a small sorted insertion buffer
// plus a sequence of static PGM levels of geometrically increasing size,
// merged LSM-style. Deletes insert tombstones that are purged when they
// reach the last occupied level.
type Dynamic struct {
	eps     int
	bufCap  int
	buf     []dynRec // sorted by key; newest wins on duplicate insert
	levels  []*Index // levels[i] holds ~bufCap*2^i records, nil if empty
	tombs   []map[core.Key]bool
	liveCnt int

	hook obs.Hook
}

// SetObserver installs r to receive structural events: every buffer flush
// (EvBufferFlush, N = buffered records) and the logarithmic-method merge it
// triggers (EvBufferMerge, N = merged records, detail = target level); nil
// detaches.
func (d *Dynamic) SetObserver(r obs.Recorder) { d.hook.SetRecorder(r) }

type dynRec struct {
	key  core.Key
	val  core.Value
	dead bool
}

// NewDynamic returns an empty dynamic PGM with the given error bound and
// insertion buffer capacity (0 selects 256).
func NewDynamic(eps, bufCap int) *Dynamic {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if bufCap <= 0 {
		bufCap = 256
	}
	return &Dynamic{eps: eps, bufCap: bufCap}
}

// Len returns the number of live records.
func (d *Dynamic) Len() int { return d.liveCnt }

// bufFind returns the buffer index of k and whether it is present.
func (d *Dynamic) bufFind(k core.Key) (int, bool) {
	lo, hi := 0, len(d.buf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.buf[mid].key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.buf) && d.buf[lo].key == k
}

// Insert upserts (k, v).
func (d *Dynamic) Insert(k core.Key, v core.Value) {
	d.put(dynRec{key: k, val: v})
}

// Delete removes k (logically). Returns true if k was live before.
func (d *Dynamic) Delete(k core.Key) bool {
	_, was := d.Get(k)
	if !was {
		return false
	}
	d.put(dynRec{key: k, dead: true})
	return true
}

func (d *Dynamic) put(r dynRec) {
	i, found := d.bufFind(r.key)
	var wasLive bool
	if found {
		wasLive = !d.buf[i].dead
		d.buf[i] = r
	} else {
		_, wasLive = d.getLevels(r.key)
		d.buf = append(d.buf, dynRec{})
		copy(d.buf[i+1:], d.buf[i:])
		d.buf[i] = r
	}
	nowLive := !r.dead
	switch {
	case wasLive && !nowLive:
		d.liveCnt--
	case !wasLive && nowLive:
		d.liveCnt++
	}
	if len(d.buf) >= d.bufCap {
		d.flush()
	}
}

// flush merges the buffer and all levels up to the first empty slot into a
// single static PGM at that slot (the logarithmic method).
func (d *Dynamic) flush() {
	d.hook.Emit(obs.EvBufferFlush, len(d.buf), "")
	// The buffer and the levels below the first empty slot, read in place.
	lens, total := []int{len(d.buf)}, len(d.buf)
	slot := 0
	for ; slot < len(d.levels) && d.levels[slot] != nil; slot++ {
		lens = append(lens, d.levels[slot].n)
		total += d.levels[slot].n
	}
	lastOccupied := true
	for s := slot + 1; s < len(d.levels); s++ {
		if d.levels[s] != nil {
			lastOccupied = false
			break
		}
	}
	recs := make([]core.KV, 0, total)
	tmb := map[core.Key]bool{}
	core.MergeNewestFirst(lens, d.key, func(s, from, to int) bool {
		for i := from; i < to; i++ {
			r := d.rec(s, i)
			if r.dead {
				if lastOccupied {
					continue
				}
				tmb[r.key] = true
			}
			recs = append(recs, core.KV{Key: r.key, Value: r.val})
		}
		return true
	})
	ix, err := Build(recs, d.eps)
	if err != nil {
		// Inputs are sorted by construction; Build cannot fail.
		panic(err)
	}
	for s := 0; s < slot; s++ {
		d.levels[s], d.tombs[s] = nil, nil
	}
	for slot >= len(d.levels) {
		d.levels = append(d.levels, nil)
		d.tombs = append(d.tombs, nil)
	}
	d.levels[slot] = ix
	d.tombs[slot] = tmb
	d.buf = d.buf[:0]
	d.hook.Emit(obs.EvBufferMerge, len(recs), fmt.Sprintf("level%d", slot))
}

// key returns the i-th key of merge source s: the buffer when s is 0,
// else level s-1.
func (d *Dynamic) key(s, i int) core.Key {
	if s == 0 {
		return d.buf[i].key
	}
	return d.levels[s-1].keys[i]
}

// rec returns the i-th record of merge source s (as key numbers them)
// with its tombstone flag.
func (d *Dynamic) rec(s, i int) dynRec {
	if s == 0 {
		return d.buf[i]
	}
	ix := d.levels[s-1]
	return dynRec{key: ix.keys[i], val: ix.recs[i].Value, dead: d.tombs[s-1][ix.keys[i]]}
}

// getLevels looks k up in the static levels only (newest first).
func (d *Dynamic) getLevels(k core.Key) (core.Value, bool) {
	for i := 0; i < len(d.levels); i++ {
		ix := d.levels[i]
		if ix == nil {
			continue
		}
		if v, ok := ix.Get(k); ok {
			if d.tombs[i][k] {
				return 0, false
			}
			return v, true
		}
		// A tombstone for k may exist without a live record in this level.
		if d.tombs[i][k] {
			return 0, false
		}
	}
	return 0, false
}

// Get returns the live value for k.
func (d *Dynamic) Get(k core.Key) (core.Value, bool) {
	if i, ok := d.bufFind(k); ok {
		if d.buf[i].dead {
			return 0, false
		}
		return d.buf[i].val, true
	}
	return d.getLevels(k)
}

// Range calls fn for live records with lo <= key <= hi ascending; fn
// returning false stops. Returns records visited.
func (d *Dynamic) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	// The buffer and every level, each read in place from its first key
	// >= lo: source s starts at start[s] (an empty level is an empty source).
	start, lens := make([]int, 1+len(d.levels)), make([]int, 1+len(d.levels))
	start[0], _ = d.bufFind(lo)
	lens[0] = len(d.buf) - start[0]
	for l, ix := range d.levels {
		if ix != nil {
			start[l+1] = ix.LowerBound(lo)
			lens[l+1] = ix.n - start[l+1]
		}
	}
	count := 0
	core.MergeNewestFirst(lens, func(s, i int) core.Key { return d.key(s, start[s]+i) }, func(s, from, to int) bool {
		for i := start[s] + from; i < start[s]+to; i++ {
			r := d.rec(s, i)
			if r.key > hi {
				return false
			}
			if !r.dead {
				count++
				if !fn(r.key, r.val) {
					return false
				}
			}
		}
		return true
	})
	return count
}

// Stats aggregates statistics across levels.
func (d *Dynamic) Stats() core.Stats {
	st := core.Stats{Name: "pgm-dynamic", Count: d.liveCnt}
	st.IndexBytes += 17 * len(d.buf)
	for _, ix := range d.levels {
		if ix == nil {
			continue
		}
		s := ix.Stats()
		st.IndexBytes += s.IndexBytes
		st.DataBytes += s.DataBytes
		st.Models += s.Models
		if s.Height > st.Height {
			st.Height = s.Height
		}
	}
	return st
}

// LevelSizes returns the record count of each occupied level (diagnostics).
func (d *Dynamic) LevelSizes() []int {
	var out []int
	for _, ix := range d.levels {
		if ix == nil {
			out = append(out, 0)
		} else {
			out = append(out, ix.n)
		}
	}
	return out
}
