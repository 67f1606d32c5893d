// Package kdtree implements an in-memory k-d tree over d-dimensional
// points: median-split bulk build, point inserts, rectangular range search
// and best-first kNN. It is a secondary traditional baseline in the
// multi-dimensional benchmarks.
package kdtree

import (
	"container/heap"
	"fmt"
	"sort"

	"github.com/lix-go/lix/internal/core"
)

// Tree is a k-d tree. The zero value is not usable; call Build or New.
type Tree struct {
	root *node
	size int
	dim  int
}

type node struct {
	pv          core.PV
	axis        int
	left, right *node
}

// New returns an empty tree for points of the given dimensionality.
func New(dim int) (*Tree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("kdtree: dim %d", dim)
	}
	return &Tree{dim: dim}, nil
}

// Build constructs a balanced tree from the given points (median split).
func Build(pvs []core.PV) (*Tree, error) {
	if len(pvs) == 0 {
		return nil, fmt.Errorf("kdtree: empty build; use New for an empty tree")
	}
	dim := pvs[0].Point.Dim()
	for i := range pvs {
		if pvs[i].Point.Dim() != dim {
			return nil, fmt.Errorf("kdtree: point %d has dim %d, want %d", i, pvs[i].Point.Dim(), dim)
		}
	}
	t := &Tree{dim: dim, size: len(pvs)}
	items := append([]core.PV(nil), pvs...)
	t.root = build(items, 0, dim)
	return t, nil
}

func build(items []core.PV, depth, dim int) *node {
	if len(items) == 0 {
		return nil
	}
	axis := depth % dim
	sort.Slice(items, func(i, j int) bool {
		return items[i].Point[axis] < items[j].Point[axis]
	})
	mid := len(items) / 2
	// Keep equal coordinates on the right of the split point.
	for mid > 0 && items[mid-1].Point[axis] == items[mid].Point[axis] {
		mid--
	}
	n := &node{pv: items[mid], axis: axis}
	n.left = build(items[:mid], depth+1, dim)
	n.right = build(items[mid+1:], depth+1, dim)
	return n
}

// Len returns the number of points.
func (t *Tree) Len() int { return t.size }

// Lookup returns the value of a stored point equal to p.
func (t *Tree) Lookup(p core.Point) (core.Value, bool) { return core.LookupBySearch(t.Search, p) }

// Insert adds a point (no rebalancing).
func (t *Tree) Insert(p core.Point, v core.Value) error {
	if p.Dim() != t.dim {
		return fmt.Errorf("kdtree: point dim %d, tree dim %d", p.Dim(), t.dim)
	}
	nn := &node{pv: core.PV{Point: p.Clone(), Value: v}}
	t.size++
	if t.root == nil {
		nn.axis = 0
		t.root = nn
		return nil
	}
	cur := t.root
	depth := 0
	for {
		axis := depth % t.dim
		if p[axis] < cur.pv.Point[axis] {
			if cur.left == nil {
				nn.axis = (depth + 1) % t.dim
				cur.left = nn
				return nil
			}
			cur = cur.left
		} else {
			if cur.right == nil {
				nn.axis = (depth + 1) % t.dim
				cur.right = nn
				return nil
			}
			cur = cur.right
		}
		depth++
	}
}

// Search calls fn for every point inside rect; fn returning false stops.
// It returns points visited and nodes touched.
func (t *Tree) Search(rect core.Rect, fn func(core.PV) bool) (visited, nodes int) {
	stop := false
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil || stop {
			return
		}
		nodes++
		if rect.Contains(n.pv.Point) {
			visited++
			if !fn(n.pv) {
				stop = true
				return
			}
		}
		axis := n.axis
		if rect.Min[axis] < n.pv.Point[axis] {
			rec(n.left)
		}
		if rect.Max[axis] >= n.pv.Point[axis] {
			rec(n.right)
		}
	}
	rec(t.root)
	return visited, nodes
}

type item struct {
	distSq float64
	n      *node
	pv     core.PV
	point  bool
}

type pq []item

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].distSq < h[j].distSq }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *pq) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// KNN returns the k nearest points to q in ascending distance order.
// Best-first search over subtrees using bounding-box distance.
func (t *Tree) KNN(q core.Point, k int) []core.PV {
	if t.root == nil || k <= 0 || q.Dim() != t.dim {
		return nil
	}
	// Each queue entry for a subtree carries the bounding rect implied by
	// the ancestor splits.
	type boxed struct {
		n    *node
		rect core.Rect
	}
	all := core.Rect{Min: make(core.Point, t.dim), Max: make(core.Point, t.dim)}
	for d := 0; d < t.dim; d++ {
		all.Min[d] = -1e308
		all.Max[d] = 1e308
	}
	h := &pq{}
	boxes := map[*node]core.Rect{t.root: all}
	heap.Push(h, item{distSq: 0, n: t.root})
	var out []core.PV
	for h.Len() > 0 && len(out) < k {
		it := heap.Pop(h).(item)
		if it.point {
			out = append(out, it.pv)
			continue
		}
		n := it.n
		rect := boxes[n]
		delete(boxes, n)
		heap.Push(h, item{distSq: q.DistSq(n.pv.Point), pv: n.pv, point: true})
		if n.left != nil {
			lr := rect.Clone()
			lr.Max[n.axis] = n.pv.Point[n.axis]
			boxes[n.left] = lr
			heap.Push(h, item{distSq: lr.MinDistSq(q), n: n.left})
		}
		if n.right != nil {
			rr := rect.Clone()
			rr.Min[n.axis] = n.pv.Point[n.axis]
			boxes[n.right] = rr
			heap.Push(h, item{distSq: rr.MinDistSq(q), n: n.right})
		}
	}
	return out
}

// Height returns the tree height (0 for empty).
func (t *Tree) Height() int {
	var rec func(n *node) int
	rec = func(n *node) int {
		if n == nil {
			return 0
		}
		l, r := rec(n.left), rec(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return rec(t.root)
}

// Stats reports structure statistics.
func (t *Tree) Stats() core.Stats {
	return core.Stats{
		Name:       "kdtree",
		Count:      t.size,
		IndexBytes: t.size * 24, // two child pointers + axis per node
		DataBytes:  t.size * (8*t.dim + 8),
		Height:     t.Height(),
		Models:     t.size,
	}
}
