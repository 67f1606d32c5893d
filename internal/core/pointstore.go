package core

import (
	"cmp"
	"fmt"
	"slices"
)

// PointStore holds points of one fixed dimension as flat row-major
// coordinates beside a value column: point i is coords[i*dim:(i+1)*dim].
// It is the record layout of the projected-space and grid indexes (zm,
// mlindex, flood, lisa), which keep the points permuted into their own sort
// order and refine every candidate run through ScanRect. The store owns its
// coordinates: nothing in it points into the caller's memory.
type PointStore struct {
	dim    int
	coords []float64
	vals   []Value
}

// NewPointStore returns an empty store of the given dimension with room for
// capacity points.
func NewPointStore(dim, capacity int) PointStore {
	return PointStore{dim: dim, coords: make([]float64, 0, dim*capacity), vals: make([]Value, 0, capacity)}
}

// PointsDim validates a build input: it must be non-empty and of one
// dimension, which is returned.
func PointsDim(pvs []PV) (int, error) {
	if len(pvs) == 0 {
		return 0, fmt.Errorf("empty input")
	}
	dim := pvs[0].Point.Dim()
	for i := range pvs {
		if pvs[i].Point.Dim() != dim {
			return 0, fmt.Errorf("point %d dim %d, want %d", i, pvs[i].Point.Dim(), dim)
		}
	}
	return dim, nil
}

// SortKeys sorts keys ascending in place and returns the permutation it
// applied: the new keys[i] is the old keys[order[i]]. Ties keep input order.
func SortKeys[K cmp.Ordered](keys []K) (order []int32) {
	type keyed struct {
		k K
		i int32
	}
	ks := make([]keyed, len(keys))
	for i, k := range keys {
		ks[i] = keyed{k, int32(i)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	order = make([]int32, len(keys))
	for i, e := range ks {
		keys[i], order[i] = e.k, e.i
	}
	return order
}

// NewPointStoreFrom copies pvs (all of dimension dim) into a store, point i
// taken from pvs[order[i]].
func NewPointStoreFrom(dim int, pvs []PV, order []int32) PointStore {
	s := NewPointStore(dim, len(order))
	for _, j := range order {
		s.Append(pvs[j].Point, pvs[j].Value)
	}
	return s
}

// Len returns the number of points.
func (s *PointStore) Len() int { return len(s.vals) }

// At returns point i. The slice aliases the store and is capped at the
// point's end, so an append to it cannot write over the next point; callers
// must treat it as read-only.
func (s *PointStore) At(i int) Point {
	return s.coords[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
}

// PV returns record i; its Point aliases the store as At's does.
func (s *PointStore) PV(i int) PV { return PV{Point: s.At(i), Value: s.vals[i]} }

// Append adds a copy of p at the end.
func (s *PointStore) Append(p Point, v Value) {
	s.coords = append(s.coords, p...)
	s.vals = append(s.vals, v)
}

// Insert adds a copy of p at position i, shifting later points up in place.
func (s *PointStore) Insert(i int, p Point, v Value) {
	s.coords = slices.Insert(s.coords, i*s.dim, p...)
	s.vals = slices.Insert(s.vals, i, v)
}

// Remove deletes point i, shifting later points down in place.
func (s *PointStore) Remove(i int) {
	s.coords = slices.Delete(s.coords, i*s.dim, (i+1)*s.dim)
	s.vals = slices.Delete(s.vals, i, i+1)
}

// Find returns the first position in [lo, hi) holding a point equal to p,
// or -1.
func (s *PointStore) Find(lo, hi int, p Point) int {
	for i := lo; i < hi; i++ {
		if s.At(i).Equal(p) {
			return i
		}
	}
	return -1
}

// DimRange narrows [lo, hi), a run whose points ascend in coordinate d, to
// the positions whose coordinate d lies in [vmin, vmax].
func (s *PointStore) DimRange(lo, hi, d int, vmin, vmax float64) (int, int) {
	a, b := lo, hi
	for a < b {
		if mid := int(uint(a+b) >> 1); s.coords[mid*s.dim+d] < vmin {
			a = mid + 1
		} else {
			b = mid
		}
	}
	lo = a
	for b = hi; a < b; {
		if mid := int(uint(a+b) >> 1); s.coords[mid*s.dim+d] <= vmax {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return lo, a
}

// ScanRect is the refine loop shared by every index built on the store: it
// calls fn for each point of [lo, hi), lo <= hi, that lies inside rect, in
// position order, and returns how many matched and whether the scan ran to
// the end (fn returning false stops it). It allocates nothing; the PV
// handed to fn aliases the store.
func (s *PointStore) ScanRect(lo, hi int, rect Rect, fn func(PV) bool) (matched int, cont bool) {
	if s.dim == 2 {
		x0, y0, x1, y1 := rect.Min[0], rect.Min[1], rect.Max[0], rect.Max[1]
		c := s.coords[2*lo : 2*hi]
		for j := 0; j+1 < len(c); j += 2 {
			if x, y := c[j], c[j+1]; x >= x0 && x <= x1 && y >= y0 && y <= y1 {
				matched++
				if !fn(PV{Point: c[j : j+2 : j+2], Value: s.vals[lo+j/2]}) {
					return matched, false
				}
			}
		}
		return matched, true
	}
	for i := lo; i < hi; i++ {
		if p := s.At(i); rect.Contains(p) {
			matched++
			if !fn(PV{Point: p, Value: s.vals[i]}) {
				return matched, false
			}
		}
	}
	return matched, true
}
