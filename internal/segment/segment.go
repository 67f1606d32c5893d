// Package segment implements ε-bounded piecewise linear approximation (PLA)
// of monotone sequences. Given sorted keys x_0 <= ... <= x_{n-1} with
// non-decreasing target positions y_i and an error budget ε, a PLA is a
// sequence of line segments such that for every i the segment covering x_i
// predicts a position p with |p - y_i| <= ε. This is the core building
// block of the PGM-index, FITing-tree and RadixSpline.
//
// Callers indexing data with duplicate keys should first collapse
// duplicates with Dedup, mapping each distinct key to the position of its
// first occurrence — this is what gives learned indexes their lower-bound
// guarantee in the presence of duplicates.
//
// Two builders are provided:
//
//   - BuildAnchored: FITing-tree's "shrinking cone". Segments are lines
//     anchored at the first point of the segment; greedy and maximal among
//     anchored lines. At most 2x the optimal number of segments.
//
//   - BuildOptimal: greedy PLA with a free intercept following O'Rourke
//     (1981), as used by the PGM-index. The feasible set of
//     (slope, intercept) pairs is a convex polygon in dual space, clipped by
//     two half-planes per point; a segment closes when the polygon becomes
//     empty, which yields maximal segments and hence the minimum segment
//     count achievable by any left-to-right segmentation.
package segment

import (
	"math"
)

// Segment is a line segment of a PLA: over keys in [FirstKey, LastKey] it
// predicts position Predict(k) = Slope*(k-FirstKey) + Intercept.
// StartIdx/EndIdx delimit the covered range [StartIdx, EndIdx) in the
// source arrays passed to the builder.
type Segment struct {
	FirstKey  float64
	LastKey   float64
	Slope     float64
	Intercept float64
	StartIdx  int
	EndIdx    int
}

// Predict returns the predicted (float) position of key k.
func (s *Segment) Predict(k float64) float64 {
	return s.Slope*(k-s.FirstKey) + s.Intercept
}

// Len returns the number of points covered by the segment.
func (s *Segment) Len() int { return s.EndIdx - s.StartIdx }

// SegmentBytes is the in-memory footprint of one Segment.
const SegmentBytes = 8*4 + 8*2

// Positions returns the identity position slice [0, 1, ..., n-1], the usual
// target when keys are distinct.
func Positions(n int) []float64 {
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = float64(i)
	}
	return ys
}

// Dedup collapses runs of equal keys, returning the distinct keys and the
// position of the first occurrence of each, which is the lower-bound rank.
func Dedup(xs []float64) (distinct, firstPos []float64) {
	for i := 0; i < len(xs); i++ {
		if i == 0 || xs[i] != xs[i-1] {
			distinct = append(distinct, xs[i])
			firstPos = append(firstPos, float64(i))
		}
	}
	return distinct, firstPos
}

// BuildAnchored builds a PLA over (xs, ys) with maximum prediction error
// eps, using the shrinking-cone algorithm with the segment's first point as
// anchor. xs must be sorted ascending (strictly, if the ε-bound must hold —
// see Dedup); ys non-decreasing; eps >= 0.
func BuildAnchored(xs, ys []float64, eps float64) []Segment {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if len(ys) != n {
		panic("segment: xs/ys length mismatch")
	}
	var segs []Segment
	start := 0
	for start < n {
		x0 := xs[start]
		y0 := ys[start]
		slopeLo := math.Inf(-1)
		slopeHi := math.Inf(1)
		end := start + 1
		for end < n {
			dx := xs[end] - x0
			if dx == 0 {
				// Equal key: prediction is pinned to y0; acceptable only
				// while the target stays within eps.
				if math.Abs(ys[end]-y0) <= eps {
					end++
					continue
				}
				break
			}
			lo := (ys[end] - eps - y0) / dx
			hi := (ys[end] + eps - y0) / dx
			newLo := math.Max(slopeLo, lo)
			newHi := math.Min(slopeHi, hi)
			if newLo > newHi {
				break
			}
			slopeLo, slopeHi = newLo, newHi
			end++
		}
		slope := 0.0
		switch {
		case math.IsInf(slopeLo, -1) && math.IsInf(slopeHi, 1):
			slope = 0
		case math.IsInf(slopeLo, -1):
			slope = slopeHi
		case math.IsInf(slopeHi, 1):
			slope = slopeLo
		default:
			slope = (slopeLo + slopeHi) / 2
		}
		segs = append(segs, Segment{
			FirstKey:  x0,
			LastKey:   xs[end-1],
			Slope:     slope,
			Intercept: y0,
			StartIdx:  start,
			EndIdx:    end,
		})
		start = end
	}
	return segs
}

// point in (slope, intercept) dual space.
type dualPt struct{ a, b float64 }

// BuildOptimal builds a PLA over (xs, ys) with maximum prediction error eps
// using the convex-polygon feasibility method. For each point (x_i, y_i)
// the feasible (slope a, intercept b) pairs satisfy
//
//	y_i - eps <= a*(x_i - x_start) + b <= y_i + eps
//
// which is a slab between two parallel half-planes in dual space. The
// intersection of slabs is a convex polygon; when it empties, the segment
// is closed at the previous point and a new segment begins.
func BuildOptimal(xs, ys []float64, eps float64) []Segment {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if len(ys) != n {
		panic("segment: xs/ys length mismatch")
	}
	var segs []Segment
	// The feasible polygon and two clip buffers, reused across points and
	// segments: a clip allocating its result was most of a build's time.
	var poly, half, next []dualPt
	start := 0
	for start < n {
		x0 := xs[start]
		// Initial feasible polygon: generous box. Slopes in [0, maxSlope]
		// (ys non-decreasing in xs, so some non-negative slope fits);
		// intercept within [y_start-eps, y_start+eps].
		maxSlope := initialMaxSlope(xs, ys, start)
		poly = append(poly[:0],
			dualPt{0, ys[start] - eps},
			dualPt{maxSlope, ys[start] - eps},
			dualPt{maxSlope, ys[start] + eps},
			dualPt{0, ys[start] + eps},
		)
		end := start
		for end < n {
			dx := xs[end] - x0
			y := ys[end]
			// Clip: a*dx + b <= y + eps   (below upper line)
			//       a*dx + b >= y - eps   (above lower line)
			half = clip(half[:0], poly, dx, 1, y+eps, true)
			next = clip(next[:0], half, dx, 1, y-eps, false)
			if len(next) == 0 {
				break
			}
			poly, next = prune(next), poly
			end++
		}
		if end == start {
			// Single point could not fit (numeric corner); emit a trivial
			// constant segment to guarantee progress.
			end = start + 1
			segs = append(segs, Segment{
				FirstKey: x0, LastKey: xs[start], Slope: 0,
				Intercept: ys[start], StartIdx: start, EndIdx: end,
			})
			start = end
			continue
		}
		a, b := polygonCenter(poly)
		segs = append(segs, Segment{
			FirstKey:  x0,
			LastKey:   xs[end-1],
			Slope:     a,
			Intercept: b,
			StartIdx:  start,
			EndIdx:    end,
		})
		start = end
	}
	return segs
}

// initialMaxSlope bounds the slope search space: the steepest useful slope
// is governed by the smallest key gap relative to its position gap. Sampling
// a prefix keeps the bound cheap; an under-estimate only closes segments
// early (more segments), never violates the error bound.
func initialMaxSlope(xs, ys []float64, start int) float64 {
	n := len(xs)
	if start+1 >= n {
		return 1
	}
	maxNeed := 0.0
	limit := start + 64
	if limit > n {
		limit = n
	}
	for i := start + 1; i < limit; i++ {
		dx := xs[i] - xs[i-1]
		dy := ys[i] - ys[i-1]
		if dx > 0 && dy/dx > maxNeed {
			maxNeed = dy / dx
		}
	}
	if maxNeed <= 0 {
		return 1e18
	}
	s := maxNeed * 4 // slack factor over steepest sampled requirement
	if s < 1 {
		s = 1
	}
	if s > 1e18 {
		s = 1e18
	}
	return s
}

// clip cuts polygon poly with the half-plane ca*a + cb*b <= rhs (when below
// is true) or >= rhs (when below is false), appending the clipped polygon to
// out, which must not share poly's memory.
func clip(out, poly []dualPt, ca, cb, rhs float64, below bool) []dualPt {
	if len(poly) == 0 {
		return out
	}
	inside := func(p dualPt) bool {
		v := ca*p.a + cb*p.b
		if below {
			return v <= rhs+1e-9
		}
		return v >= rhs-1e-9
	}
	for i := range poly {
		cur := poly[i]
		prev := poly[(i+len(poly)-1)%len(poly)]
		ci, pi := inside(cur), inside(prev)
		if pi != ci {
			// Edge crosses the boundary: add the intersection point.
			den := ca*(cur.a-prev.a) + cb*(cur.b-prev.b)
			if den != 0 {
				t := (rhs - ca*prev.a - cb*prev.b) / den
				out = append(out, dualPt{
					a: prev.a + t*(cur.a-prev.a),
					b: prev.b + t*(cur.b-prev.b),
				})
			}
		}
		if ci {
			out = append(out, cur)
		}
	}
	return out
}

// maxPolyVerts bounds the feasible polygon's complexity. On data a single
// line fits exactly (e.g. equally spaced keys) every clip adds a vertex
// without closing the segment, which would make the pass quadratic; pruning
// keeps it linear. Dropping a vertex of a convex polygon replaces it with
// the chord between its neighbors, which is a subset of the region, so the
// ε-guarantee is unaffected (the segment may only close marginally early).
const maxPolyVerts = 48

// prune halves the vertex count when the polygon grows past maxPolyVerts.
func prune(poly []dualPt) []dualPt {
	if len(poly) <= maxPolyVerts {
		return poly
	}
	out := poly[:0]
	for i := 0; i < len(poly); i += 2 {
		out = append(out, poly[i])
	}
	return out
}

// polygonCenter returns the vertex centroid of the feasible polygon — any
// interior point is a valid (slope, intercept).
func polygonCenter(poly []dualPt) (a, b float64) {
	for _, p := range poly {
		a += p.a
		b += p.b
	}
	n := float64(len(poly))
	return a / n, b / n
}

// MaxError returns the maximum |Predict(xs[i]) - ys[i]| over the points
// covered by the PLA.
func MaxError(xs, ys []float64, segs []Segment) float64 {
	var worst float64
	for si := range segs {
		s := &segs[si]
		for i := s.StartIdx; i < s.EndIdx; i++ {
			d := math.Abs(s.Predict(xs[i]) - ys[i])
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Locate returns the index of the segment covering key k (the last segment
// whose FirstKey <= k), or 0 if k precedes all segments.
func Locate(segs []Segment, k float64) int {
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].FirstKey <= k {
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
