// Package mlindex implements the ML-Index (Davitkova et al., EDBT 2020): an
// iDistance-style projection — points are assigned to their nearest
// reference point and keyed by partition offset plus distance to the
// reference — whose keys are the sorted column of the projected engine
// (core.Projected), searched by binary search where the paper trains a
// learned one-dimensional index (EXPERIMENTS E17). Point and range queries
// translate to annulus scans over the column; kNN searches growing windows
// through the range query.
//
// Each partition is split further, as the Pyramid technique (Berchtold et
// al., SIGMOD 1998) splits the space around its centre: the sector of a
// point is which of the 2·d pyramids around its reference holds it, the
// axis along which it lies farthest from the reference and the sign of
// that offset. A key is sub-partition (reference, sector) then distance,
// so a rectangle, which seen from a reference is a thin distance band,
// scans that band only in the sectors it can meet rather than all the way
// round the reference.
//
// Taxonomy: immutable / pure / projected space (Approach 2).
package mlindex

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/lix-go/lix/internal/core"
)

// Config parameterizes a build.
type Config struct {
	// Refs is the number of reference points (0 scales with the data,
	// clamped to [16, 128]).
	Refs int
}

// kmeansIters is the number of Lloyd iterations that refine the
// reference points.
const kmeansIters = 8

// Index is an immutable ML-Index: the projected keys are the engine's keys.
type Index struct {
	core.Projected
	refs []core.Point // refs[r] is reference r; it aliases a row of near
	near refSet
	// shift is the bits of a key below its sub-partition, which fills the
	// top bits.Len(subs−1) of the 32: a key is sub<<shift | offset.
	shift uint
	// distScale converts distances to integer key offsets within a
	// sub-partition's 2^shift key band; it is sized to the data's
	// bounding-box diagonal so the full distance range spreads over the band.
	distScale float64
	// maxDist bounds each sub-partition's distances to its reference (for
	// pruning), -Inf when the sub-partition is empty; sub-partition r·2d + s
	// is sector s of reference r.
	maxDist []float64
}

// Build constructs an ML-Index over the points (copied and reordered).
func Build(pvs []core.PV, cfg Config) (*Index, error) {
	m := &Index{}
	err := m.Project(pvs, func(ext core.Rect) (func(core.Point) uint32, error) {
		refs := cfg.Refs
		if refs <= 0 {
			// Scale partitions with the data so annulus scans stay short;
			// the ML-Index paper likewise uses dozens of reference points.
			refs = min(max(len(pvs)/8192, 16), 128)
		}
		m.near = kmeans(pvs, min(refs, len(pvs)))
		m.refs = m.near.points()
		subBits := bits.Len(uint(len(m.refs)*2*m.Dim - 1))
		if subBits > 30 {
			return nil, fmt.Errorf("%d references in %d dimensions leave no 32-bit key room for distances", len(m.refs), m.Dim)
		}
		m.shift = uint(32 - subBits)
		// Spread the largest possible distance (the bounding-box diagonal)
		// over the offset band.
		diag := ext.Min.Dist(ext.Max)
		if diag <= 0 {
			diag = 1
		}
		m.distScale = float64(uint64(1)<<m.shift-2) / diag
		return m.project, nil
	})
	if err != nil {
		return nil, fmt.Errorf("mlindex: %w", err)
	}
	m.maxDist = m.radii()
	return m, nil
}

// kmeansSample bounds the points a Lloyd iteration reads. The references
// only have to spread over the data's clusters, which a few hundred points
// per reference place as well as all of them; the one pass that must see
// every point is the assignment in Build.
const kmeansSample = 32768

// kmeans runs a few Lloyd iterations, seeded by evenly spaced data points,
// over at most kmeansSample evenly spaced data points, and returns the
// references as a set. Each round's set walks unless the round before
// measured too many references a point for the walk to pay (see walkPays);
// once a set scans, it goes on scanning.
func kmeans(pvs []core.PV, k int) refSet {
	refs := make([]core.Point, k)
	for i := range refs {
		refs[i] = pvs[i*len(pvs)/k].Point.Clone()
	}
	dim, sample := len(refs[0]), min(len(pvs), kmeansSample)
	sums, counts := make([]float64, k*dim), make([]int, k)
	scan := false
	for it := 0; it < kmeansIters; it++ {
		clear(sums)
		clear(counts)
		near := newRefSet(refs, scan)
		evals := 0
		for j := 0; j < sample; j++ {
			p := pvs[j*len(pvs)/sample].Point
			r, _, e := near.nearest(p)
			evals += e
			counts[r]++
			for d, x := range p {
				sums[r*dim+d] += x
			}
		}
		scan = !walkPays(evals, sample, k)
		for r, ref := range refs {
			for d := range ref {
				if counts[r] > 0 {
					ref[d] = sums[r*dim+d] / float64(counts[r])
				}
			}
		}
	}
	return newRefSet(refs, scan)
}

// walkPays reports whether a walk that measured evals references over
// points points, in a set of k, costs less than a scan of every reference.
func walkPays(evals, points, k int) bool { return evals*walkStepCost < points*k }

// walkStepCost is the cost of a walk step, which picks a side and tests the
// stop before it measures, in scan steps. Over 100 k points at d = 2–5 and
// 16 or 61 references (uniform and OSM-like), a step of the walk took 1.9–6
// scan steps, the least where the walk measures the most; at 2 the rule
// picks the faster of the two in all but one of those 16 cases, within 6 %.
const walkStepCost = 2

// refSet is the reference points laid out for the nearest-reference
// search: one flat row-major array ordered by coordinate 0 (NaN first),
// beside the number of the reference in each row.
type refSet struct {
	dim    int
	coords []float64
	ids    []int32
	// scan makes nearest measure every reference rather than walk, for
	// data on which the walk would measure most of them.
	scan bool
}

// newRefSet copies refs, all of one dimension, into a set.
func newRefSet(refs []core.Point, scan bool) refSet {
	s := refSet{dim: len(refs[0]), coords: make([]float64, 0, len(refs)*len(refs[0])), ids: make([]int32, len(refs)), scan: scan}
	for r := range s.ids {
		s.ids[r] = int32(r)
	}
	slices.SortFunc(s.ids, func(a, b int32) int {
		return cmp.Or(cmp.Compare(refs[a][0], refs[b][0]), cmp.Compare(a, b))
	})
	for _, r := range s.ids {
		s.coords = append(s.coords, refs[r]...)
	}
	return s
}

// points returns the references by number, each a row of the set.
func (s *refSet) points() []core.Point {
	refs := make([]core.Point, len(s.ids))
	for k, r := range s.ids {
		refs[r] = s.coords[k*s.dim : (k+1)*s.dim : (k+1)*s.dim]
	}
	return refs
}

// nearest returns the reference nearest to p, the lowest-numbered one on a
// tie, p's squared distance to it and how many references it measured. It
// walks outward from p's coordinate 0, nearer side first, and stops once
// that coordinate's offset alone squares above the best distance: a
// distance is a sum of non-negative squares that starts with that one, so
// in floating point too it is no smaller, and every row further out is at
// least as far along coordinate 0. A NaN offset never stops the walk and a
// NaN distance never wins, as in a scan of every reference. A set that
// scans measures every reference.
func (s *refSet) nearest(p core.Point) (best int, d2 float64, evals int) {
	dim, n, x := s.dim, len(s.ids), p[0]
	d2 = math.Inf(1)
	if s.scan {
		for k, r := range s.ids {
			if d := p.DistSq(s.coords[k*dim : (k+1)*dim]); d < d2 || d == d2 && int(r) < best {
				best, d2 = int(r), d
			}
		}
		return best, d2, n
	}
	// The first row whose coordinate 0 is at least x (sort.Search's).
	lo, hi := 0, n
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); !(s.coords[mid*dim] >= x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	lo--
	for lo >= 0 || hi < n {
		var k int
		var dx float64
		if hi < n && (lo < 0 || s.coords[hi*dim]-x <= x-s.coords[lo*dim]) {
			k, dx = hi, s.coords[hi*dim]-x
			hi++
		} else {
			k, dx = lo, x-s.coords[lo*dim]
			lo--
		}
		if dx*dx > d2 {
			break
		}
		evals++
		if d, r := p.DistSq(s.coords[k*dim:(k+1)*dim]), int(s.ids[k]); d < d2 || d == d2 && r < best {
			best, d2 = r, d
		}
	}
	return best, d2, evals
}

// sector returns which of the 2·d pyramids around ref holds p: 2a+1 for
// the axis a along which p lies farthest from ref (the lowest such axis on
// a tie) when p[a] >= ref[a], 2a when p[a] < ref[a].
func sector(p, ref core.Point) int {
	a, far := 0, -1.0
	for j := range p {
		if o := math.Abs(p[j] - ref[j]); o > far {
			a, far = j, o
		}
	}
	if p[a] >= ref[a] {
		return 2*a + 1
	}
	return 2 * a
}

// boxMeetsSector reports whether box may hold a point of sector s around
// ref and, if so, bounds the distance to ref of any such point by [dLo,
// dHi], in O(d). The closed pyramid of axis a and sign + holds the offsets
// o from ref with o[a] >= |o[j]| for every j: a box meets it when the
// offset of its far face along a is at least 0 and at least every other
// axis's smallest |offset| in the box, and inside it o[a] is at least each
// of those and every |o[j]| at most o[a]. The ties sector breaks lie on
// the closed pyramid, and a rounded offset is monotone in the coordinate,
// so the test never rejects a sector that holds a point of box.
func boxMeetsSector(box core.Rect, ref core.Point, s int) (dLo, dHi float64, ok bool) {
	a := s / 2
	// Offsets along a, oriented so that the sector's side is positive.
	near, far := box.Min[a]-ref[a], box.Max[a]-ref[a]
	if s%2 == 0 {
		near, far = ref[a]-box.Max[a], ref[a]-box.Min[a]
	}
	if far < 0 {
		return 0, 0, false
	}
	near = max(near, 0)
	var lo2, hi2 float64
	for j := range ref {
		if j == a {
			continue
		}
		lo, hi := box.Min[j]-ref[j], box.Max[j]-ref[j]
		m := max(lo, -hi, 0) // the smallest |offset| along j in box
		if m > far {
			return 0, 0, false
		}
		near = max(near, m)
		f := min(max(-lo, hi), far) // the largest |offset| along j in box and sector
		lo2 += m * m
		hi2 += f * f
	}
	return math.Sqrt(near*near + lo2), math.Sqrt(far*far + hi2), true
}

// place returns the sub-partition p belongs to and p's distance to that
// sub-partition's reference.
func (m *Index) place(p core.Point) (sub int, dist float64) {
	r, d2, _ := m.near.nearest(p)
	return r*2*m.Dim + sector(p, m.refs[r]), math.Sqrt(d2)
}

// key maps (sub-partition, distance) to the projected 1-D key.
func (m *Index) key(sub int, dist float64) uint32 {
	off := min(uint64(dist*m.distScale), 1<<m.shift-1)
	return uint32(sub)<<m.shift | uint32(off)
}

// project is the key function of the mapping.
func (m *Index) project(p core.Point) uint32 { return m.key(m.place(p)) }

// radii bounds each sub-partition's distances to its reference from the
// last of its keys, -Inf for an empty one: a key's offset is its distance
// scaled and rounded down, so two offsets more lies above the distance
// however the division back rounds.
func (m *Index) radii() []float64 {
	r := make([]float64, len(m.refs)*2*m.Dim)
	for i := range r {
		r[i] = math.Inf(-1)
	}
	for _, k := range m.Keys {
		r[k>>m.shift] = float64(k&(1<<m.shift-1)+2) / m.distScale
	}
	return r
}

// Lookup returns the value of the point equal to p.
func (m *Index) Lookup(p core.Point) (core.Value, bool) {
	if p.Dim() != m.Dim {
		return 0, false
	}
	k := m.project(p) // as the build computed it for an equal point
	return m.Projected.Lookup(p, k, k)
}

// band returns the keys of sub-partition sub whose distance to the
// reference may lie in [dLo, dHi]: an annulus of the engine's column.
func (m *Index) band(sub int, dLo, dHi float64) (kLo, kHi uint32) {
	kLo = m.key(sub, max(dLo, 0))
	if kLo > uint32(sub)<<m.shift {
		kLo-- // quantization slack, kept within sub
	}
	kHi = m.key(sub, dHi)
	if kHi < uint32(sub)<<m.shift|(1<<m.shift-1) {
		kHi++ // quantization slack, kept within sub
	}
	// An inverted rectangle can put kHi below kLo: an empty annulus.
	return kLo, kHi
}

// Search calls fn for every point in rect; fn returning false stops.
// Returns points visited and candidate points scanned (the I/O proxy).
func (m *Index) Search(rect core.Rect, fn func(core.PV) bool) (visited, scanned int) {
	if rect.Dim() != m.Dim {
		return 0, 0
	}
	sectors := 2 * m.Dim
	for r, ref := range m.refs {
		// The rect seen from ref r is a thin distance band; it is scanned
		// only in the sectors the rect can meet, each over the part of the
		// band that sector's share of the rect spans.
		dRef := math.Sqrt(rect.MinDistSq(ref))
		for s := 0; s < sectors; s++ {
			sub := r*sectors + s
			if dRef > m.maxDist[sub] {
				continue
			}
			dLo, dHi, ok := boxMeetsSector(rect, ref, s)
			if !ok || dLo > m.maxDist[sub] {
				continue
			}
			lo, hi := m.Interval(m.band(sub, dLo, min(dHi, m.maxDist[sub])))
			n, cont := m.Pts.ScanRect(lo, hi, rect, fn)
			visited += n
			scanned += hi - lo
			if !cont {
				return visited, scanned
			}
		}
	}
	return visited, scanned
}

// KNN returns the k nearest points to q in ascending distance order,
// through the rectangle search of a window grown around q.
func (m *Index) KNN(q core.Point, k int) []core.PV { return m.Projected.KNN(q, k, m.Search) }

// Stats reports structure statistics.
func (m *Index) Stats() core.Stats {
	return m.Projected.Stats("mlindex", len(m.refs)*8*m.Dim+8*len(m.maxDist), len(m.refs))
}
