// Package mlindex implements the ML-Index (Davitkova et al., EDBT 2020): an
// iDistance-style projection — points are assigned to their nearest
// reference point and keyed by partition offset plus distance to the
// reference — with a learned one-dimensional index (a PGM-index) over the
// projected keys. Point, range, and kNN queries translate to annulus scans
// over the learned index.
//
// Taxonomy: immutable / pure / projected space (Approach 2).
package mlindex

import (
	"fmt"
	"math"
	"sort"

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
	// partition's 2^32 key band; it is sized to the data's bounding-box
	// diagonal so the full distance range spreads over the band.
	distScale float64
	// per-partition max distance (for pruning)
	maxDist []float64
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
	diag := ext.Min.Dist(ext.Max)
	if diag <= 0 {
		diag = 1
	}
	m.distScale = float64(uint64(1)<<32-2) / diag
	// Project and sort.
	m.keys = make([]core.Key, len(pvs))
	m.maxDist = make([]float64, len(m.refs))
	for i, pv := range pvs {
		r, d := m.nearestRef(pv.Point)
		if d > m.maxDist[r] {
			m.maxDist[r] = d
		}
		m.keys[i] = m.key(r, d)
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

// key maps (partition, distance) to the projected 1-D key.
func (m *Index) key(ref int, dist float64) core.Key {
	off := core.Key(dist * m.distScale)
	if off >= 1<<32 {
		off = 1<<32 - 1
	}
	return core.Key(ref)<<32 | off
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
	r, d := m.nearestRef(p)
	// distScale quantization: the point's key may be one off either way.
	lo, hi := m.annulus(r, d, d)
	if i := m.pts.Find(lo, hi, p); i >= 0 {
		return m.pts.PV(i).Value, true
	}
	return 0, false
}

// annulus returns the positions [lo, hi) of the stored points of partition
// r whose distance to the reference lies in [dLo, dHi].
func (m *Index) annulus(r int, dLo, dHi float64) (lo, hi int) {
	kLo := m.key(r, max(dLo, 0))
	if kLo > core.Key(r)<<32 {
		kLo-- // quantization slack, kept within partition r
	}
	kHi := m.key(r, dHi)
	if kHi < core.Key(r)<<32|(1<<32-1) {
		kHi++ // quantization slack, kept within partition r
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
	for r := range m.refs {
		// Distance band of the rect seen from ref r.
		dLo := math.Sqrt(rect.MinDistSq(m.refs[r]))
		if dLo > m.maxDist[r] {
			continue
		}
		lo, hi := m.annulus(r, dLo, min(maxDistToRect(m.refs[r], rect), m.maxDist[r]))
		n, cont := m.pts.ScanRect(lo, hi, rect, fn)
		visited += n
		scanned += hi - lo
		if !cont {
			break
		}
	}
	return visited, scanned
}

// maxDistToRect returns the maximum distance from p to any corner of rect.
func maxDistToRect(p core.Point, rect core.Rect) float64 {
	var s float64
	for d := range p {
		a := math.Abs(p[d] - rect.Min[d])
		if b := math.Abs(p[d] - rect.Max[d]); b > a {
			a = b
		}
		s += a * a
	}
	return math.Sqrt(s)
}

// KNN returns the k nearest points to q in ascending distance order using
// the iDistance expanding-annulus algorithm.
func (m *Index) KNN(q core.Point, k int) []core.PV {
	if k <= 0 || q.Dim() != m.dim {
		return nil
	}
	k = min(k, len(m.keys))
	// coverRadius is the radius at which every partition's annulus
	// [qDist-radius, qDist+radius] contains its full distance range
	// [0, maxDist], i.e. the search provably scans every stored point.
	// Capping expansion by the data span alone terminated too early when
	// the extent was degenerate (all points equal) or q lay far outside it.
	qDist := make([]float64, len(m.refs))
	coverRadius := 0.0
	for r := range m.refs {
		qDist[r] = q.Dist(m.refs[r])
		coverRadius = max(coverRadius, qDist[r]+m.maxDist[r])
	}
	type cand struct {
		i  int
		d2 float64
	}
	var cands []cand
	for radius := m.initialRadius(); ; radius *= 2 {
		cands = cands[:0]
		for r := range m.refs {
			// Points of partition r within radius of q lie in the annulus
			// [qDist-radius, qDist+radius] around ref r.
			if qDist[r]-radius > m.maxDist[r] {
				continue
			}
			lo, hi := m.annulus(r, qDist[r]-radius, qDist[r]+radius)
			for i := lo; i < hi; i++ {
				cands = append(cands, cand{i, q.DistSq(m.pts.At(i))})
			}
		}
		// At coverRadius every partition was scanned in full.
		all := radius >= coverRadius
		if len(cands) < k && !all {
			continue
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].d2 < cands[j].d2 })
		if all || cands[k-1].d2 <= radius*radius {
			result := make([]core.PV, min(k, len(cands)))
			for i := range result {
				result[i] = m.pts.PV(cands[i].i)
			}
			return result
		}
	}
}

func (m *Index) initialRadius() float64 {
	// A small fraction of the mean partition radius.
	var s float64
	for _, d := range m.maxDist {
		s += d
	}
	r := s / float64(len(m.maxDist)) * 0.05
	if r <= 0 {
		r = 1
	}
	return r
}

// Stats reports structure statistics.
func (m *Index) Stats() core.Stats {
	st := m.ix.Stats()
	return core.Stats{
		Name:       "mlindex",
		Count:      len(m.keys),
		IndexBytes: st.IndexBytes + 8*len(m.keys) + len(m.refs)*8*m.dim,
		DataBytes:  len(m.keys) * (8*m.dim + 8),
		Height:     st.Height,
		Models:     st.Models + len(m.refs),
	}
}
