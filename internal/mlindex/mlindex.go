// Package mlindex implements the ML-Index (Davitkova et al., EDBT 2020): an
// iDistance-style projection — points are assigned to their nearest
// reference point and keyed by partition offset plus distance to the
// reference — with a learned one-dimensional index (a PGM-index) over the
// projected keys. Point and range queries translate to annulus scans over
// the learned index; kNN searches growing windows through the range query.
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
	"fmt"
	"math"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/pgm"
)

// Config parameterizes a build.
type Config struct {
	// Refs is the number of reference points (0 scales with the data,
	// clamped to [16, 128]).
	Refs int
	// Epsilon for the underlying PGM-index.
	Epsilon int
	// KMeansIters refines reference points with Lloyd iterations (0 -> 8).
	KMeansIters int
}

// Index is an immutable ML-Index.
type Index struct {
	cfg  Config
	dim  int
	refs []core.Point
	keys []core.Key      // sorted projected keys, parallel to pts
	pts  core.PointStore // in key order
	ix   *pgm.Index      // over keys
	// distScale converts distances to integer key offsets within a
	// sub-partition's 2^32 key band; it is sized to the data's bounding-box
	// diagonal so the full distance range spreads over the band.
	distScale float64
	// maxDist is each sub-partition's largest distance to its reference
	// (for pruning), -Inf when the sub-partition is empty; sub-partition
	// r·2d + s is sector s of reference r.
	maxDist []float64
	side    float64 // longest side of the data extent
}

// Build constructs an ML-Index over the points (copied and reordered).
func Build(pvs []core.PV, cfg Config) (*Index, error) {
	dim, err := core.PointsDim(pvs)
	if err != nil {
		return nil, fmt.Errorf("mlindex: %w", err)
	}
	if cfg.Refs <= 0 {
		// Scale partitions with the data so annulus scans stay short; the
		// ML-Index paper likewise uses dozens of reference points.
		cfg.Refs = len(pvs) / 8192
		if cfg.Refs < 16 {
			cfg.Refs = 16
		}
		if cfg.Refs > 128 {
			cfg.Refs = 128
		}
	}
	if cfg.Refs > len(pvs) {
		cfg.Refs = len(pvs)
	}
	if cfg.KMeansIters == 0 {
		cfg.KMeansIters = 8
	}
	m := &Index{cfg: cfg, dim: dim}
	m.refs = kmeans(pvs, cfg.Refs, cfg.KMeansIters)
	// Scale: spread the largest possible distance (bounding-box diagonal)
	// over the 32-bit offset band.
	ext := core.Bounds(pvs)
	for d := range dim {
		m.side = max(m.side, ext.Max[d]-ext.Min[d])
	}
	diag := ext.Min.Dist(ext.Max)
	if diag <= 0 {
		diag = 1
	}
	m.distScale = float64(uint64(1)<<32-2) / diag
	// Project and sort.
	m.keys = make([]core.Key, len(pvs))
	m.maxDist = make([]float64, len(m.refs)*2*dim)
	for i := range m.maxDist {
		m.maxDist[i] = math.Inf(-1)
	}
	for i, pv := range pvs {
		sub, d := m.place(pv.Point)
		m.maxDist[sub] = max(m.maxDist[sub], d)
		m.keys[i] = m.key(sub, d)
	}
	m.pts = core.NewPointStoreFrom(dim, pvs, core.SortKeys(m.keys))
	// The model is built over the key column the index already holds: a
	// key's value would only be its position.
	if m.ix, err = pgm.BuildKeys(m.keys, cfg.Epsilon); err != nil {
		return nil, err
	}
	return m, nil
}

// kmeansSample bounds the points a Lloyd iteration reads. The references
// only have to spread over the data's clusters, which a few hundred points
// per reference place as well as all of them; the one pass that must see
// every point is the assignment in Build.
const kmeansSample = 32768

// kmeans runs a few Lloyd iterations, seeded by evenly spaced data points,
// over at most kmeansSample evenly spaced data points.
func kmeans(pvs []core.PV, k, iters int) []core.Point {
	refs := make([]core.Point, k)
	for i := range refs {
		refs[i] = pvs[i*len(pvs)/k].Point.Clone()
	}
	dim := pvs[0].Point.Dim()
	sample := min(len(pvs), kmeansSample)
	for it := 0; it < iters; it++ {
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for j := 0; j < sample; j++ {
			p := pvs[j*len(pvs)/sample].Point
			best, bd := 0, math.Inf(1)
			for r := range refs {
				if d := p.DistSq(refs[r]); d < bd {
					best, bd = r, d
				}
			}
			counts[best]++
			for d := 0; d < dim; d++ {
				sums[best][d] += p[d]
			}
		}
		for r := range refs {
			if counts[r] == 0 {
				continue
			}
			for d := 0; d < dim; d++ {
				refs[r][d] = sums[r][d] / float64(counts[r])
			}
		}
	}
	return refs
}

func (m *Index) nearestRef(p core.Point) (int, float64) {
	best, bd := 0, math.Inf(1)
	for r := range m.refs {
		if d := p.DistSq(m.refs[r]); d < bd {
			best, bd = r, d
		}
	}
	return best, math.Sqrt(bd)
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
	r, d := m.nearestRef(p)
	return r*2*m.dim + sector(p, m.refs[r]), d
}

// key maps (sub-partition, distance) to the projected 1-D key.
func (m *Index) key(sub int, dist float64) core.Key {
	off := core.Key(dist * m.distScale)
	if off >= 1<<32 {
		off = 1<<32 - 1
	}
	return core.Key(sub)<<32 | off
}

// Len returns the number of points.
func (m *Index) Len() int { return len(m.keys) }

// Refs returns the reference points (read-only).
func (m *Index) Refs() []core.Point { return m.refs }

// Lookup returns the value of the point equal to p.
func (m *Index) Lookup(p core.Point) (core.Value, bool) {
	if p.Dim() != m.dim {
		return 0, false
	}
	sub, d := m.place(p)
	// distScale quantization: the point's key may be one off either way.
	lo, hi := m.annulus(sub, d, d)
	if i := m.pts.Find(lo, hi, p); i >= 0 {
		return m.pts.PV(i).Value, true
	}
	return 0, false
}

// annulus returns the positions [lo, hi) of the stored points of
// sub-partition sub whose distance to the reference lies in [dLo, dHi].
func (m *Index) annulus(sub int, dLo, dHi float64) (lo, hi int) {
	kLo := m.key(sub, max(dLo, 0))
	if kLo > core.Key(sub)<<32 {
		kLo-- // quantization slack, kept within sub
	}
	kHi := m.key(sub, dHi)
	if kHi < core.Key(sub)<<32|(1<<32-1) {
		kHi++ // quantization slack, kept within sub
	}
	lo = m.ix.LowerBound(kLo)
	// An inverted rectangle can put kHi below kLo: an empty annulus.
	return lo, max(lo, core.ExponentialSearch(m.keys, kHi+1, lo))
}

// Search calls fn for every point in rect; fn returning false stops.
// Returns points visited and candidate points scanned (the I/O proxy).
func (m *Index) Search(rect core.Rect, fn func(core.PV) bool) (visited, scanned int) {
	if rect.Dim() != m.dim {
		return 0, 0
	}
	sectors := 2 * m.dim
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
			lo, hi := m.annulus(sub, dLo, min(dHi, m.maxDist[sub]))
			n, cont := m.pts.ScanRect(lo, hi, rect, fn)
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
func (m *Index) KNN(q core.Point, k int) []core.PV {
	if q.Dim() != m.dim {
		return nil
	}
	return core.KNNByWindow(q, k, len(m.keys), m.side, m.Search)
}

// Stats reports structure statistics.
func (m *Index) Stats() core.Stats {
	st := m.ix.Stats()
	return core.Stats{
		Name:       "mlindex",
		Count:      len(m.keys),
		IndexBytes: st.IndexBytes + 8*len(m.keys) + len(m.refs)*8*m.dim + 8*len(m.maxDist),
		DataBytes:  len(m.keys) * (8*m.dim + 8),
		Height:     st.Height,
		Models:     st.Models + len(m.refs),
	}
}
