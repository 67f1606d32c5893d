package core

import (
	"fmt"
	"math"
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
// It is a radix sort over the keys' bits, float64 keys ordered as
// cmp.Compare orders them.
func SortKeys[K float64 | uint64](keys []K) (order []int32) {
	if fs, ok := any(keys).([]float64); ok {
		bits := make([]uint64, len(fs))
		for i, k := range fs {
			bits[i] = floatOrderBits(k)
		}
		order = radixOrder(bits)
		for i, k := range fs {
			bits[i] = math.Float64bits(k)
		}
		for i, j := range order {
			fs[i] = math.Float64frombits(bits[j])
		}
		return order
	}
	us := any(keys).([]uint64)
	bits := slices.Clone(us)
	order = radixOrder(bits)
	copy(bits, us)
	for i, j := range order {
		us[i] = bits[j]
	}
	return order
}

// floatOrderBits maps a float64 to a uint64 that sorts as cmp.Compare sorts
// the floats: every NaN first, -0 and +0 equal.
func floatOrderBits(f float64) uint64 {
	switch {
	case f != f:
		return 0
	case f == 0:
		f = 0
	}
	if u := math.Float64bits(f); u>>63 == 1 {
		return ^u
	} else {
		return u | 1<<63
	}
}

// radixOrder returns the stable ascending order of bits, which it reorders
// along the way: a least-significant-digit radix sort a byte a pass, each
// pass a stable scatter, skipping the bytes every key shares.
func radixOrder(bits []uint64) []int32 {
	n := len(bits)
	var counts [8][256]int
	for _, u := range bits {
		for b := 0; b < 8; b++ {
			counts[b][byte(u>>(8*b))]++
		}
	}
	order, tmpOrder := make([]int32, n), make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	tmp := make([]uint64, n)
	for b := 0; b < 8 && n > 0; b++ {
		count := &counts[b]
		shift := 8 * b
		if count[byte(bits[0]>>shift)] == n {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i, u := range bits {
			d := byte(u >> shift)
			tmp[count[d]], tmpOrder[count[d]] = u, order[i]
			count[d]++
		}
		bits, tmp = tmp, bits
		order, tmpOrder = tmpOrder, order
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

// DimBound returns the first position in [lo, hi), a run whose points
// ascend in coordinate d, whose coordinate d is at least v, or above v when
// after is set; hi if there is none. It searches [guess-err, guess+err]
// first, a model's prediction and its error bound, and the rest of the run
// only when a neighbour of that window shows the answer outside it, so a
// wrong bound costs time, never the answer.
func (s *PointStore) DimBound(lo, hi, d int, v float64, after bool, guess, err int) int {
	below := func(i int) bool {
		if c := s.coords[i*s.dim+d]; after {
			return c <= v
		} else {
			return c < v
		}
	}
	a, b := max(lo, min(hi, guess-err)), min(hi, max(lo, guess+err+1))
	switch {
	case a > lo && !below(a-1):
		a, b = lo, a-1
	case b < hi && below(b):
		a, b = b+1, hi
	}
	for a < b {
		if mid := int(uint(a+b) >> 1); below(mid) {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return a
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
