// Package quadtree implements a point-region (PR) quadtree over
// two-dimensional points (Samet, 1984): capacity-based splitting, range
// search and best-first kNN. It is a traditional 2-D baseline and the
// namesake contrast for the learned Qd-tree layout.
package quadtree

import (
	"container/heap"
	"fmt"

	"github.com/lix-go/lix/internal/core"
)

// DefaultCapacity is the default number of points a leaf holds before
// splitting.
const DefaultCapacity = 32

// Tree is a PR quadtree covering a fixed bounding box; points outside the
// box are rejected.
type Tree struct {
	bounds   core.Rect
	capacity int
	root     *node
	size     int
	maxDepth int
}

type node struct {
	bounds   core.Rect
	pts      []core.PV // leaf payload (nil children)
	children *[4]*node // nil for leaves
	depth    int
}

// New returns an empty quadtree over bounds with the given leaf capacity.
func New(bounds core.Rect, capacity int) (*Tree, error) {
	if bounds.Dim() != 2 {
		return nil, fmt.Errorf("quadtree: bounds dim %d, want 2", bounds.Dim())
	}
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Tree{
		bounds:   bounds,
		capacity: capacity,
		root:     &node{bounds: bounds},
		maxDepth: 32,
	}, nil
}

// Len returns the number of points.
func (t *Tree) Len() int { return t.size }

// Lookup returns the value of a stored point equal to p.
func (t *Tree) Lookup(p core.Point) (core.Value, bool) { return core.LookupBySearch(t.Search, p) }

// Insert adds a point; it fails if the point lies outside the tree bounds.
func (t *Tree) Insert(p core.Point, v core.Value) error {
	if p.Dim() != 2 {
		return fmt.Errorf("quadtree: point dim %d, want 2", p.Dim())
	}
	if !t.bounds.Contains(p) {
		return fmt.Errorf("quadtree: point %v outside bounds", p)
	}
	t.insert(t.root, core.PV{Point: p.Clone(), Value: v})
	t.size++
	return nil
}

func (t *Tree) insert(n *node, pv core.PV) {
	for {
		if n.children == nil {
			n.pts = append(n.pts, pv)
			if len(n.pts) > t.capacity && n.depth < t.maxDepth {
				t.split(n)
			}
			return
		}
		n = n.children[n.quadrant(pv.Point)]
	}
}

// quadrant returns the child index for p: bit0 = east, bit1 = north.
func (n *node) quadrant(p core.Point) int {
	c := n.bounds.Center()
	q := 0
	if p[0] >= c[0] {
		q |= 1
	}
	if p[1] >= c[1] {
		q |= 2
	}
	return q
}

func (t *Tree) split(n *node) {
	c := n.bounds.Center()
	b := n.bounds
	var kids [4]*node
	quads := [4]core.Rect{
		{Min: core.Point{b.Min[0], b.Min[1]}, Max: core.Point{c[0], c[1]}},
		{Min: core.Point{c[0], b.Min[1]}, Max: core.Point{b.Max[0], c[1]}},
		{Min: core.Point{b.Min[0], c[1]}, Max: core.Point{c[0], b.Max[1]}},
		{Min: core.Point{c[0], c[1]}, Max: core.Point{b.Max[0], b.Max[1]}},
	}
	for i := range kids {
		kids[i] = &node{bounds: quads[i], depth: n.depth + 1}
	}
	pts := n.pts
	n.pts = nil
	n.children = &kids
	for _, pv := range pts {
		kids[n.quadrant(pv.Point)].pts = append(kids[n.quadrant(pv.Point)].pts, pv)
	}
	// A pathological all-equal batch could overflow one child; allow it
	// (depth cap prevents infinite splitting).
	for i := range kids {
		if len(kids[i].pts) > t.capacity && kids[i].depth < t.maxDepth {
			t.split(kids[i])
		}
	}
}

// Delete removes one point equal to p with matching value.
func (t *Tree) Delete(p core.Point, v core.Value) bool {
	if p.Dim() != 2 || !t.bounds.Contains(p) {
		return false
	}
	n := t.root
	for n.children != nil {
		n = n.children[n.quadrant(p)]
	}
	for i := range n.pts {
		if n.pts[i].Value == v && n.pts[i].Point.Equal(p) {
			n.pts = append(n.pts[:i], n.pts[i+1:]...)
			t.size--
			return true
		}
	}
	return false
}

// Search calls fn for every point in rect; fn returning false stops.
// Returns points visited and nodes touched.
func (t *Tree) Search(rect core.Rect, fn func(core.PV) bool) (visited, nodes int) {
	stop := false
	var rec func(n *node)
	rec = func(n *node) {
		if stop || !n.bounds.Intersects(rect) {
			return
		}
		nodes++
		if n.children == nil {
			for _, pv := range n.pts {
				if rect.Contains(pv.Point) {
					visited++
					if !fn(pv) {
						stop = true
						return
					}
				}
			}
			return
		}
		for _, c := range n.children {
			rec(c)
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
func (t *Tree) KNN(q core.Point, k int) []core.PV {
	if t.size == 0 || k <= 0 || q.Dim() != 2 {
		return nil
	}
	h := &pq{{distSq: t.root.bounds.MinDistSq(q), n: t.root}}
	var out []core.PV
	for h.Len() > 0 && len(out) < k {
		it := heap.Pop(h).(item)
		if it.point {
			out = append(out, it.pv)
			continue
		}
		n := it.n
		if n.children == nil {
			for _, pv := range n.pts {
				heap.Push(h, item{distSq: q.DistSq(pv.Point), pv: pv, point: true})
			}
			continue
		}
		for _, c := range n.children {
			heap.Push(h, item{distSq: c.bounds.MinDistSq(q), n: c})
		}
	}
	return out
}

// Height returns the maximum node depth + 1.
func (t *Tree) Height() int {
	var rec func(n *node) int
	rec = func(n *node) int {
		if n.children == nil {
			return 1
		}
		m := 0
		for _, c := range n.children {
			if h := rec(c); h > m {
				m = h
			}
		}
		return m + 1
	}
	return rec(t.root)
}

// Stats reports structure statistics.
func (t *Tree) Stats() core.Stats {
	var nodes, dataBytes int
	var rec func(n *node)
	rec = func(n *node) {
		nodes++
		dataBytes += 24 * len(n.pts)
		if n.children != nil {
			for _, c := range n.children {
				rec(c)
			}
		}
	}
	rec(t.root)
	return core.Stats{
		Name:       "quadtree",
		Count:      t.size,
		IndexBytes: nodes * 72, // bounds + child pointers
		DataBytes:  dataBytes,
		Height:     t.Height(),
		Models:     nodes,
	}
}
