package core

import (
	"fmt"
	"math"
	"slices"
)

// Projected is the engine of the projected-space indexes (zm, mlindex), the
// paper's Approach 2: every point maps to a one-dimensional key, the keys
// form one sorted column and the points are stored in key order, so a query
// is a search of the column and a scan of the points at the positions it
// finds. The mapping is the owner's: it supplies the key function and turns
// a rectangle into key intervals. A key is 32 bits, 4 B a point beside the
// point's 24 in 2-D. The column's first search is LowerBound: a learned model
// over these keys lands no faster where the scan starts, and the time goes
// to the scan (EXPERIMENTS E17).
type Projected struct {
	Keys []uint32   // ascending; Keys[i] is the key of point i
	Pts  PointStore // in key order
	Dim  int
	Side float64 // longest side of the data extent, the first kNN window's scale
	// Locate, when set, replaces LowerBound over Keys as the column's first
	// search. Set it on a copy of the owner, which then shares the column:
	// it is how an experiment compares 1-D searchers over the same keys.
	Locate func(uint32) int
}

// Project builds p over pvs, which must be non-empty and of one dimension:
// mapping is called with their bounding box, once p.Dim is set, and returns
// the key function each point is mapped through. The points are copied.
func (p *Projected) Project(pvs []PV, mapping func(ext Rect) (func(Point) uint32, error)) error {
	dim, err := PointsDim(pvs)
	if err != nil {
		return err
	}
	ext := Bounds(pvs)
	*p = Projected{Keys: make([]uint32, len(pvs)), Dim: dim}
	for d := range dim {
		p.Side = max(p.Side, ext.Max[d]-ext.Min[d])
	}
	key, err := mapping(ext)
	if err != nil {
		return err
	}
	for i, pv := range pvs {
		p.Keys[i] = key(pv.Point)
	}
	p.Pts = NewPointStoreFrom(dim, pvs, SortKeys(p.Keys))
	return nil
}

// Len returns the number of points.
func (p *Projected) Len() int { return len(p.Keys) }

// LowerBound returns the first position whose key is at least k.
func (p *Projected) LowerBound(k uint32) int {
	if p.Locate != nil {
		return p.Locate(k)
	}
	i, _ := slices.BinarySearch(p.Keys, k)
	return i
}

// Seek returns the first position at or after from whose key is at least
// k, every key before from being below k. It gallops forward, so it costs
// the logarithm of the distance.
func (p *Projected) Seek(k uint32, from int) int {
	keys, step := p.Keys[from:], 1
	for step <= len(keys) && keys[step-1] < k {
		step *= 2
	}
	i, _ := slices.BinarySearch(keys[step/2:min(step, len(keys))], k)
	return from + step/2 + i
}

// Interval returns the positions [lo, hi) of the keys in [kLo, kHi]; it is
// empty when kHi < kLo.
func (p *Projected) Interval(kLo, kHi uint32) (lo, hi int) {
	lo, hi = p.LowerBound(kLo), len(p.Keys)
	if kHi < math.MaxUint32 {
		hi = max(lo, p.Seek(kHi+1, lo))
	}
	return lo, hi
}

// Lookup returns the value of a stored point equal to q among those keyed
// in [kLo, kHi].
func (p *Projected) Lookup(q Point, kLo, kHi uint32) (Value, bool) {
	lo, hi := p.Interval(kLo, kHi)
	if i := p.Pts.Find(lo, hi, q); i >= 0 {
		return p.Pts.PV(i).Value, true
	}
	return 0, false
}

// KNN returns the k nearest points to q in ascending distance order,
// through search, the owner's rectangle search, over a window grown round q.
func (p *Projected) KNN(q Point, k int, search func(Rect, func(PV) bool) (int, int)) []PV {
	if q.Dim() != p.Dim {
		return nil
	}
	return KNNByWindow(q, k, len(p.Keys), p.Side, search)
}

// Stats reports the column and the points, plus the mapping's own bytes and
// models.
func (p *Projected) Stats(name string, mappingBytes, models int) Stats {
	n := len(p.Keys)
	return Stats{Name: name, Count: n, IndexBytes: 4*n + mappingBytes, DataBytes: n * (8*p.Dim + 8), Height: 1, Models: models}
}

// CheckInvariants verifies what every projected index rests on: the column
// and the store agree in length, the keys ascend, and each stored key is
// key of its point. It calls key once a point.
func (p *Projected) CheckInvariants(key func(Point) uint32) error {
	if len(p.Keys) != p.Pts.Len() {
		return fmt.Errorf("%d keys for %d points", len(p.Keys), p.Pts.Len())
	}
	for i, k := range p.Keys {
		if i > 0 && k < p.Keys[i-1] {
			return fmt.Errorf("keys out of order at %d", i)
		}
		if want := key(p.Pts.At(i)); k != want {
			return fmt.Errorf("stored key %#x at %d, its point maps to %#x", k, i, want)
		}
	}
	return nil
}
