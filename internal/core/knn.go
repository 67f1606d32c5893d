package core

import (
	"math"
	"sort"
)

// Bounds returns the bounding box of a non-empty build input.
func Bounds(pvs []PV) Rect {
	r := RectOf(pvs[0].Point)
	for _, pv := range pvs {
		r.ExpandPoint(pv.Point)
	}
	return r
}

// KNNByWindow answers a k-nearest-neighbour query through an index's
// rectangle search: it searches a square window around q, doubling it until
// the k-th nearest candidate lies within the window's inscribed ball or the
// window holds all n stored points, and returns the k nearest in ascending
// distance order. side is the extent of the data along its longest
// dimension; the first window is sized to hold k points if the n points
// were spread evenly over it.
func KNNByWindow(q Point, k, n int, side float64, search func(Rect, func(PV) bool) (int, int)) []PV {
	if k <= 0 || n == 0 {
		return nil
	}
	k = min(k, n)
	w := side / 2 * math.Pow(float64(k)/float64(n), 1/float64(len(q)))
	if !(w > 0) {
		w = 1
	}
	type cand struct {
		pv PV
		d2 float64
	}
	var cands []cand
	rect := Rect{Min: make(Point, len(q)), Max: make(Point, len(q))}
	for ; ; w *= 2 {
		for d := range q {
			rect.Min[d], rect.Max[d] = q[d]-w, q[d]+w
		}
		cands = cands[:0]
		search(rect, func(pv PV) bool {
			cands = append(cands, cand{pv, q.DistSq(pv.Point)})
			return true
		})
		// The count, not geometry, says the window holds everything: a
		// mutable index may hold points outside the extent it was built on.
		// An infinite window cannot grow: it ends the search even if points
		// with NaN coordinates keep the count short.
		all := len(cands) == n || math.IsInf(w, 1)
		if len(cands) < k && !all {
			continue
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].d2 < cands[j].d2 })
		if all || cands[k-1].d2 <= w*w {
			out := make([]PV, min(k, len(cands)))
			for i := range out {
				out[i] = cands[i].pv
			}
			return out
		}
	}
}
