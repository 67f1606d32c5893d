package core

import (
	"cmp"
	"math"
	"slices"
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
	// cands is a max-heap on d2 of the k nearest points the window has shown
	// so far: a dense cluster puts thousands of points in a window, and only
	// k of them are ever returned.
	cands := make([]knnCand, 0, k)
	rect := Rect{Min: make(Point, len(q)), Max: make(Point, len(q))}
	for ; ; w *= 2 {
		for d := range q {
			rect.Min[d], rect.Max[d] = q[d]-w, q[d]+w
		}
		cands = cands[:0]
		seen := 0
		search(rect, func(pv PV) bool {
			seen++
			c := knnCand{pv, q.DistSq(pv.Point)}
			if len(cands) < k {
				cands = append(cands, c)
				siftUp(cands, len(cands)-1)
			} else if c.d2 < cands[0].d2 {
				cands[0] = c
				siftDown(cands, 0)
			}
			return true
		})
		// The count, not geometry, says the window holds everything: a
		// mutable index may hold points outside the extent it was built on.
		// An infinite window cannot grow: it ends the search even if points
		// with NaN coordinates keep the count short.
		all := seen == n || math.IsInf(w, 1)
		if seen < k && !all {
			continue
		}
		if all || cands[0].d2 <= w*w {
			slices.SortFunc(cands, func(a, b knnCand) int { return cmp.Compare(a.d2, b.d2) })
			out := make([]PV, len(cands))
			for i := range out {
				out[i] = cands[i].pv
			}
			return out
		}
	}
}

// LookupBySearch answers an exact-point lookup through an index's
// rectangle search over the degenerate rectangle at p, for spatial
// structures without a native point path.
func LookupBySearch(search func(Rect, func(PV) bool) (int, int), p Point) (Value, bool) {
	var out Value
	found := false
	// No Search mutates its rectangle, so both corners can be p itself.
	search(Rect{Min: p, Max: p}, func(pv PV) bool {
		if pv.Point.Equal(p) {
			out, found = pv.Value, true
			return false
		}
		return true
	})
	return out, found
}

// knnCand is a kNN candidate with its squared distance to the query.
type knnCand struct {
	pv PV
	d2 float64
}

// siftUp and siftDown restore the max-heap order of h on d2 after h[i] was
// appended or replaced.
func siftUp(h []knnCand, i int) {
	for i > 0 {
		up := (i - 1) / 2
		if h[up].d2 >= h[i].d2 {
			return
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
}

func siftDown(h []knnCand, i int) {
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			return
		}
		if kid+1 < len(h) && h[kid+1].d2 > h[kid].d2 {
			kid++
		}
		if h[i].d2 >= h[kid].d2 {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}
