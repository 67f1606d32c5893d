// Package grid implements a uniform (fixed) grid index over d-dimensional
// points: every dimension is cut into an equal number of cells and points
// are bucketed by cell. It is the traditional contrast for Flood, whose
// contribution is precisely to *learn* the per-dimension cuts instead of
// fixing them uniformly.
package grid

import (
	"container/heap"
	"fmt"

	"github.com/lix-go/lix/internal/core"
)

// Grid is a uniform grid index. The zero value is not usable; call New.
type Grid struct {
	bounds core.Rect
	cells  int // cells per dimension
	dim    int
	bucket [][]core.PV // flattened row-major cell buckets
	size   int
}

// New returns an empty grid over bounds with cells divisions per dimension.
// cells^dim buckets are allocated eagerly, so keep cells modest for high
// dimensions.
func New(bounds core.Rect, cells int) (*Grid, error) {
	dim := bounds.Dim()
	if dim < 1 {
		return nil, fmt.Errorf("grid: empty bounds")
	}
	if cells < 1 {
		return nil, fmt.Errorf("grid: cells %d", cells)
	}
	total := 1
	for d := 0; d < dim; d++ {
		if total > 1<<26/cells {
			return nil, fmt.Errorf("grid: cells^dim too large (%d^%d)", cells, dim)
		}
		total *= cells
	}
	return &Grid{
		bounds: bounds.Clone(),
		cells:  cells,
		dim:    dim,
		bucket: make([][]core.PV, total),
	}, nil
}

// Len returns the number of points.
func (g *Grid) Len() int { return g.size }

// Lookup returns the value of a stored point equal to p.
func (g *Grid) Lookup(p core.Point) (core.Value, bool) { return core.LookupBySearch(g.Search, p) }

// cellCoord quantizes coordinate v in dimension d, clamping to the grid.
func (g *Grid) cellCoord(d int, v float64) int {
	span := g.bounds.Max[d] - g.bounds.Min[d]
	c := int((v - g.bounds.Min[d]) / span * float64(g.cells))
	if c < 0 {
		c = 0
	}
	if c >= g.cells {
		c = g.cells - 1
	}
	return c
}

// cellIndex returns the bucket index of point p.
func (g *Grid) cellIndex(p core.Point) int {
	idx := 0
	for d := 0; d < g.dim; d++ {
		idx = idx*g.cells + g.cellCoord(d, p[d])
	}
	return idx
}

// Insert adds a point (clamped into the boundary cells if outside bounds).
func (g *Grid) Insert(p core.Point, v core.Value) error {
	if p.Dim() != g.dim {
		return fmt.Errorf("grid: point dim %d, want %d", p.Dim(), g.dim)
	}
	i := g.cellIndex(p)
	g.bucket[i] = append(g.bucket[i], core.PV{Point: p.Clone(), Value: v})
	g.size++
	return nil
}

// Delete removes one point equal to p with matching value.
func (g *Grid) Delete(p core.Point, v core.Value) bool {
	if p.Dim() != g.dim {
		return false
	}
	i := g.cellIndex(p)
	b := g.bucket[i]
	for j := range b {
		if b[j].Value == v && b[j].Point.Equal(p) {
			g.bucket[i] = append(b[:j], b[j+1:]...)
			g.size--
			return true
		}
	}
	return false
}

// Search calls fn for every point inside rect; fn returning false stops.
// Returns points visited and buckets touched.
func (g *Grid) Search(rect core.Rect, fn func(core.PV) bool) (visited, buckets int) {
	lo := make([]int, g.dim)
	hi := make([]int, g.dim)
	for d := 0; d < g.dim; d++ {
		lo[d] = g.cellCoord(d, rect.Min[d])
		hi[d] = g.cellCoord(d, rect.Max[d])
	}
	idx := make([]int, g.dim)
	copy(idx, lo)
	for {
		flat := 0
		for d := 0; d < g.dim; d++ {
			flat = flat*g.cells + idx[d]
		}
		buckets++
		for _, pv := range g.bucket[flat] {
			if rect.Contains(pv.Point) {
				visited++
				if !fn(pv) {
					return visited, buckets
				}
			}
		}
		// Odometer increment.
		d := g.dim - 1
		for d >= 0 {
			idx[d]++
			if idx[d] <= hi[d] {
				break
			}
			idx[d] = lo[d]
			d--
		}
		if d < 0 {
			break
		}
	}
	return visited, buckets
}

type item struct {
	distSq float64
	pv     core.PV
}

type pq []item

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].distSq > h[j].distSq } // max-heap
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *pq) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// KNN returns the k nearest points to q by expanding rings of cells around
// q's cell until the k-th best distance is closer than the next ring.
func (g *Grid) KNN(q core.Point, k int) []core.PV {
	if g.size == 0 || k <= 0 || q.Dim() != g.dim {
		return nil
	}
	cellSpan := make([]float64, g.dim)
	for d := 0; d < g.dim; d++ {
		cellSpan[d] = (g.bounds.Max[d] - g.bounds.Min[d]) / float64(g.cells)
	}
	minSpan := cellSpan[0]
	for _, s := range cellSpan[1:] {
		if s < minSpan {
			minSpan = s
		}
	}
	center := make([]int, g.dim)
	for d := 0; d < g.dim; d++ {
		center[d] = g.cellCoord(d, q[d])
	}
	best := &pq{}
	scanCell := func(coords []int) {
		flat := 0
		for d := 0; d < g.dim; d++ {
			flat = flat*g.cells + coords[d]
		}
		for _, pv := range g.bucket[flat] {
			d2 := q.DistSq(pv.Point)
			if best.Len() < k {
				heap.Push(best, item{d2, pv})
			} else if d2 < (*best)[0].distSq {
				(*best)[0] = item{d2, pv}
				heap.Fix(best, 0)
			}
		}
	}
	// Ring r visits cells with Chebyshev distance exactly r from center.
	for r := 0; r <= g.cells; r++ {
		if best.Len() == k {
			// All cells at Chebyshev ring r are at least (r-1)*minSpan away.
			minPossible := float64(r-1) * minSpan
			if minPossible > 0 && minPossible*minPossible > (*best)[0].distSq {
				break
			}
		}
		g.visitRing(center, r, scanCell)
	}
	out := make([]core.PV, best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(best).(item).pv
	}
	return out
}

// visitRing enumerates all in-bounds cells at Chebyshev distance exactly r
// from center.
func (g *Grid) visitRing(center []int, r int, fn func([]int)) {
	coords := make([]int, g.dim)
	var rec func(d int, onShell bool)
	rec = func(d int, onShell bool) {
		if d == g.dim {
			if onShell {
				fn(coords)
			}
			return
		}
		lo, hi := center[d]-r, center[d]+r
		for c := lo; c <= hi; c++ {
			if c < 0 || c >= g.cells {
				continue
			}
			coords[d] = c
			rec(d+1, onShell || c == lo || c == hi)
		}
	}
	if r == 0 {
		inb := true
		for d := 0; d < g.dim; d++ {
			coords[d] = center[d]
			if coords[d] < 0 || coords[d] >= g.cells {
				inb = false
			}
		}
		if inb {
			fn(coords)
		}
		return
	}
	rec(0, false)
}

// Stats reports structure statistics.
func (g *Grid) Stats() core.Stats {
	occupied := 0
	for _, b := range g.bucket {
		if len(b) > 0 {
			occupied++
		}
	}
	return core.Stats{
		Name:       "grid",
		Count:      g.size,
		IndexBytes: len(g.bucket) * 24,
		DataBytes:  g.size * (8*g.dim + 8),
		Height:     1,
		Models:     occupied,
	}
}
