// Package rtree implements an in-memory R-tree over d-dimensional points
// (Guttman, 1984): quadratic-split inserts, deletion with re-insertion, and
// Sort-Tile-Recursive (STR) bulk loading. It is the traditional
// multi-dimensional baseline of the benchmark suite and the traditional
// component of the hybrid learned spatial indexes.
package rtree

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"github.com/lix-go/lix/internal/core"
)

// DefaultMaxEntries is the default node capacity.
const DefaultMaxEntries = 32

// Tree is an R-tree over points. It owns its coordinates. The zero value is
// not usable; call New or BulkSTR.
type Tree struct {
	maxEntries int
	minEntries int
	root       *node
	size       int
	dim        int // 0 until the first point fixes dimensionality
}

// node is one layout for bulk-loaded and incrementally built trees. A box is
// 2*dim floats, the mins then the maxes. An inner node holds child i's
// minimum bounding box at bounds[2*dim*i : 2*dim*(i+1)] beside kids[i]; a
// leaf holds its points in a flat store and no box per point.
type node struct {
	leaf   bool
	bounds []float64
	kids   []*node
	pts    core.PointStore
}

// New returns an empty tree with the given node capacity (0 selects the
// default; otherwise clamped to >= 4).
func New(maxEntries int) *Tree {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	maxEntries = max(maxEntries, 4)
	return &Tree{
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5, // 40% fill, Guttman's recommendation
		root:       &node{leaf: true},
	}
}

// newNode returns an empty node with room for the one entry over capacity a
// node holds just before it splits.
func (t *Tree) newNode(leaf bool) *node {
	room := t.maxEntries + 1
	if leaf {
		return &node{leaf: true, pts: core.NewPointStore(t.dim, room)}
	}
	return &node{bounds: make([]float64, 0, 2*t.dim*room), kids: make([]*node, 0, room)}
}

// count returns the entries n holds: points in a leaf, children otherwise.
func (n *node) count() int { return n.pts.Len() + len(n.kids) }

// box returns the flat box b as a rectangle that aliases it.
func box(b []float64) core.Rect { return core.Rect{Min: b[:len(b)/2], Max: b[len(b)/2:]} }

// kidBox returns the box of child i of the inner node n, w floats wide.
func (n *node) kidBox(i, w int) core.Rect { return box(n.bounds[i*w : (i+1)*w]) }

// mbr writes the minimum bounding box of the non-empty n into b.
func (n *node) mbr(b []float64) {
	r := box(b)
	if n.leaf {
		copy(r.Min, n.pts.At(0))
		copy(r.Max, n.pts.At(0))
		for i := 1; i < n.pts.Len(); i++ {
			r.ExpandPoint(n.pts.At(i))
		}
		return
	}
	copy(b, n.bounds)
	for i := 1; i < len(n.kids); i++ {
		r.Expand(n.kidBox(i, len(b)))
	}
}

// addKid appends kid and its bounding box to the inner node n.
func (n *node) addKid(kid *node, dim int) {
	at := len(n.bounds)
	n.bounds = append(n.bounds, make([]float64, 2*dim)...)
	kid.mbr(n.bounds[at:])
	n.kids = append(n.kids, kid)
}

// unionArea returns the volume of the smallest rectangle covering r and s;
// unlike Rect.EnlargementArea it allocates nothing.
func unionArea(r, s core.Rect) float64 {
	a := 1.0
	for d := range r.Min {
		a *= max(r.Max[d], s.Max[d]) - min(r.Min[d], s.Min[d])
	}
	return a
}

// tile puts es in Sort-Tile-Recursive order: slabs along dimension d,
// sub-slabs along d+1 and so on, sized so that a run of the node capacity
// never crosses a slab boundary. centre(i, d) is entry i's centre along d.
func (t *Tree) tile(es []int32, d, slabs int, centre func(i int32, d int) float64) {
	if d >= t.dim || slabs <= 1 || len(es) <= t.maxEntries {
		return
	}
	keys, sorted := make([]float64, len(es)), make([]int32, len(es))
	for i, e := range es {
		keys[i] = centre(e, d)
	}
	for i, j := range core.SortKeys(keys) {
		sorted[i] = es[j]
	}
	copy(es, sorted)
	// Number of slabs along this dimension: ceil(slabs^(1/(dim-d))).
	s := max(1, int(math.Ceil(math.Pow(float64(slabs), 1/float64(t.dim-d)))))
	per := (len(es) + s - 1) / s
	per = (per + t.maxEntries - 1) / t.maxEntries * t.maxEntries
	for i := 0; i < len(es); i += per {
		t.tile(es[i:min(i+per, len(es))], d+1, (slabs+s-1)/s, centre)
	}
}

// pack tiles n entries and builds one node from each run of the node
// capacity, returning the nodes and their bounding boxes.
func (t *Tree) pack(n int, centre func(i int32, d int) float64, build func(run []int32) *node) (level []*node, boxes []float64) {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	t.tile(order, 0, (n+t.maxEntries-1)/t.maxEntries, centre)
	for lo := 0; lo < n; lo += t.maxEntries {
		nd := build(order[lo:min(lo+t.maxEntries, n)])
		level = append(level, nd)
		boxes = append(boxes, make([]float64, 2*t.dim)...)
		nd.mbr(boxes[len(boxes)-2*t.dim:])
	}
	return level, boxes
}

// BulkSTR builds a tree from points using Sort-Tile-Recursive packing,
// producing near-100% full nodes. O(n log n). The points are copied.
func BulkSTR(maxEntries int, pvs []core.PV) (*Tree, error) {
	t := New(maxEntries)
	if len(pvs) == 0 {
		return t, nil
	}
	dim, err := core.PointsDim(pvs)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	t.dim, t.size = dim, len(pvs)
	w := 2 * dim
	level, boxes := t.pack(len(pvs), func(i int32, d int) float64 { return pvs[i].Point[d] }, func(run []int32) *node {
		return &node{leaf: true, pts: core.NewPointStoreFrom(dim, pvs, run)}
	})
	for len(level) > 1 {
		below, belowBoxes := level, boxes
		centre := func(i int32, d int) float64 {
			return (belowBoxes[int(i)*w+d] + belowBoxes[int(i)*w+dim+d]) / 2
		}
		level, boxes = t.pack(len(below), centre, func(run []int32) *node {
			in := &node{bounds: make([]float64, 0, w*len(run)), kids: make([]*node, 0, len(run))}
			for _, i := range run {
				in.bounds = append(in.bounds, belowBoxes[int(i)*w:int(i+1)*w]...)
				in.kids = append(in.kids, below[i])
			}
			return in
		})
	}
	t.root = level[0]
	return t, nil
}

// Len returns the number of points.
func (t *Tree) Len() int { return t.size }

// Dim returns the dimensionality (0 if empty and never inserted).
func (t *Tree) Dim() int { return t.dim }

// Insert adds a copy of the point.
func (t *Tree) Insert(p core.Point, v core.Value) error {
	if t.dim == 0 && t.size == 0 {
		t.dim = p.Dim()
		t.root = t.newNode(true)
	}
	if p.Dim() != t.dim {
		return fmt.Errorf("rtree: point dim %d, tree dim %d", p.Dim(), t.dim)
	}
	if split := t.insert(t.root, p, v); split != nil {
		root := t.newNode(false)
		root.addKid(t.root, t.dim)
		root.addKid(split, t.dim)
		t.root = root
	}
	t.size++
	return nil
}

// insert places the point into the subtree at n, returning a new sibling if
// n split.
func (t *Tree) insert(n *node, p core.Point, v core.Value) *node {
	if n.leaf {
		n.pts.Append(p, v)
		if n.pts.Len() > t.maxEntries {
			return t.split(n)
		}
		return nil
	}
	// Choose subtree: least enlargement, ties by smallest area.
	w, at := 2*t.dim, core.Rect{Min: p, Max: p}
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i := range n.kids {
		b := n.kidBox(i, w)
		area := b.Area()
		if enl := unionArea(b, at) - area; enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	kid := n.kids[best]
	split := t.insert(kid, p, v)
	if split == nil {
		// An insert only grows a box, so this is the child's MBR exactly.
		n.kidBox(best, w).ExpandPoint(p)
		return nil
	}
	kid.mbr(n.bounds[best*w : (best+1)*w])
	n.addKid(split, t.dim)
	if len(n.kids) > t.maxEntries {
		return t.split(n)
	}
	return nil
}

// split performs Guttman's quadratic split of the overfull n, which keeps
// one group; the other is returned as its new sibling.
func (t *Tree) split(n *node) *node {
	w := 2 * t.dim
	boxes := n.bounds
	if n.leaf {
		boxes = make([]float64, 0, w*n.pts.Len())
		for i := 0; i < n.pts.Len(); i++ {
			boxes = append(append(boxes, n.pts.At(i)...), n.pts.At(i)...)
		}
	}
	a, b := t.newNode(n.leaf), t.newNode(n.leaf)
	for i, toB := range t.quadratic(boxes, n.count()) {
		dst := a
		if toB {
			dst = b
		}
		if n.leaf {
			dst.pts.Append(n.pts.At(i), n.pts.PV(i).Value)
		} else {
			dst.bounds = append(dst.bounds, boxes[i*w:(i+1)*w]...)
			dst.kids = append(dst.kids, n.kids[i])
		}
	}
	*n = *a
	return b
}

// quadratic distributes the n boxes of an overfull node over two groups of
// at least minEntries each and reports which boxes went to the second.
func (t *Tree) quadratic(boxes []float64, n int) []bool {
	at := func(i int) core.Rect { return box(boxes[2*t.dim*i : 2*t.dim*(i+1)]) }
	// Pick seeds: pair with maximal dead area.
	areas := make([]float64, n)
	for i := range areas {
		areas[i] = at(i).Area()
	}
	seedA, seedB, worst := 0, 1, math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := unionArea(at(i), at(j)) - areas[i] - areas[j]; d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}
	toB, done := make([]bool, n), make([]bool, n)
	rectA, rectB := at(seedA).Clone(), at(seedB).Clone()
	done[seedA], done[seedB], toB[seedB] = true, true, true
	nA, nB := 1, 1
	for rest := n - 2; rest > 0; rest-- {
		// Force assignment if one group must take all remaining to reach min.
		if forceA := nA+rest == t.minEntries; forceA || nB+rest == t.minEntries {
			for i := range done {
				if !done[i] {
					toB[i] = !forceA
				}
			}
			break
		}
		// Pick the entry with the greatest preference difference.
		pick, pickToA, bestDiff := 0, false, -1.0
		areaA, areaB := rectA.Area(), rectB.Area()
		for i := range done {
			if done[i] {
				continue
			}
			dA, dB := unionArea(rectA, at(i))-areaA, unionArea(rectB, at(i))-areaB
			if diff := math.Abs(dA - dB); diff > bestDiff {
				bestDiff, pick = diff, i
				pickToA = dA < dB || (dA == dB && areaA < areaB)
			}
		}
		done[pick], toB[pick] = true, !pickToA
		if pickToA {
			nA++
			rectA.Expand(at(pick))
		} else {
			nB++
			rectB.Expand(at(pick))
		}
	}
	return toB
}

// Delete removes one point equal to p (with matching value), returning true
// if found. Underflowing nodes are dissolved and their entries re-inserted
// (Guttman's CondenseTree).
func (t *Tree) Delete(p core.Point, v core.Value) bool {
	if t.size == 0 || p.Dim() != t.dim {
		return false
	}
	var orphans []core.PV // alias the dissolved leaves' stores, which nothing writes to again
	if !t.remove(t.root, p, v, &orphans) {
		return false
	}
	t.size -= 1 + len(orphans)
	// Collapse root.
	if !t.root.leaf && len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
	}
	if !t.root.leaf && len(t.root.kids) == 0 {
		t.root = t.newNode(true)
	}
	for _, o := range orphans {
		if err := t.Insert(o.Point, o.Value); err != nil {
			// Cannot happen: orphan dims match the tree.
			panic(err)
		}
	}
	return true
}

func (t *Tree) remove(n *node, p core.Point, v core.Value, orphans *[]core.PV) bool {
	if n.leaf {
		for i := 0; i < n.pts.Len(); i++ {
			if pv := n.pts.PV(i); pv.Value == v && pv.Point.Equal(p) {
				n.pts.Remove(i)
				return true
			}
		}
		return false
	}
	w := 2 * t.dim
	for i, kid := range n.kids {
		if !n.kidBox(i, w).Contains(p) || !t.remove(kid, p, v, orphans) {
			continue
		}
		if kid.count() < t.minEntries {
			// Dissolve the child; collect its points (or descend for inner).
			kid.collect(orphans)
			n.bounds = slices.Delete(n.bounds, i*w, (i+1)*w)
			n.kids = slices.Delete(n.kids, i, i+1)
		} else {
			kid.mbr(n.bounds[i*w : (i+1)*w])
		}
		return true
	}
	return false
}

func (n *node) collect(out *[]core.PV) {
	for i := 0; i < n.pts.Len(); i++ {
		*out = append(*out, n.pts.PV(i))
	}
	for _, kid := range n.kids {
		kid.collect(out)
	}
}

// search is the state of one Search, held on its stack.
type search struct {
	rect           core.Rect
	fn             func(core.PV) bool
	x0, y0, x1, y1 float64 // rect's corners when the tree is 2-D
	visited, nodes int
}

// Search calls fn for every point inside rect (inclusive); fn returning
// false stops the search. It returns the number of points visited and the
// number of nodes touched (the I/O proxy reported by the benchmarks). The PV
// handed to fn aliases the tree and is read-only.
func (t *Tree) Search(rect core.Rect, fn func(core.PV) bool) (visited, nodes int) {
	if t.size == 0 {
		return 0, 0
	}
	s := search{rect: rect, fn: fn}
	if t.dim == 2 {
		s.x0, s.y0, s.x1, s.y1 = rect.Min[0], rect.Min[1], rect.Max[0], rect.Max[1]
	}
	s.walk(t.root, 2*t.dim)
	return s.visited, s.nodes
}

// walk visits the subtree at n, whose boxes are w floats wide, and reports
// whether the search goes on. The 2-D box test is unrolled as ScanRect's is.
func (s *search) walk(n *node, w int) bool {
	s.nodes++
	if n.leaf {
		matched, cont := n.pts.ScanRect(0, n.pts.Len(), s.rect, s.fn)
		s.visited += matched
		return cont
	}
	for i, kid := range n.kids {
		if w == 4 {
			if b := n.bounds[4*i : 4*i+4]; b[0] > s.x1 || b[2] < s.x0 || b[1] > s.y1 || b[3] < s.y0 {
				continue
			}
		} else if !n.kidBox(i, w).Intersects(s.rect) {
			continue
		}
		if !s.walk(kid, w) {
			return false
		}
	}
	return true
}

// Lookup returns the value of a stored point equal to p.
func (t *Tree) Lookup(p core.Point) (core.Value, bool) {
	if t.size == 0 || p.Dim() != t.dim {
		return 0, false
	}
	return t.root.lookup(p)
}

func (n *node) lookup(p core.Point) (core.Value, bool) {
	if n.leaf {
		if i := n.pts.Find(0, n.pts.Len(), p); i >= 0 {
			return n.pts.PV(i).Value, true
		}
		return 0, false
	}
	for i, kid := range n.kids {
		if n.kidBox(i, 2*len(p)).Contains(p) {
			if v, ok := kid.lookup(p); ok {
				return v, true
			}
		}
	}
	return 0, false
}

// knnItem is a priority-queue element for best-first kNN: the subtree n, or
// point i of the leaf n when i >= 0.
type knnItem struct {
	distSq float64
	n      *node
	i      int32
}

// knnHeap is a binary min-heap on distSq.
type knnHeap []knnItem

func (h *knnHeap) push(it knnItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up].distSq <= s[i].distSq {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
}

func (h *knnHeap) pop() knnItem {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		kid := 2*i + 1
		if kid+1 < last && s[kid+1].distSq < s[kid].distSq {
			kid++
		}
		if kid >= last || s[i].distSq <= s[kid].distSq {
			break
		}
		s[i], s[kid] = s[kid], s[i]
		i = kid
	}
	*h = s
	return top
}

// KNN returns the k nearest points to q in ascending distance order using
// best-first search. The points alias the tree and are read-only.
func (t *Tree) KNN(q core.Point, k int) []core.PV {
	if t.size == 0 || k <= 0 {
		return nil
	}
	h := knnHeap{{n: t.root, i: -1}}
	out := make([]core.PV, 0, min(k, t.size))
	for len(h) > 0 && len(out) < k {
		it := h.pop()
		switch n := it.n; {
		case it.i >= 0:
			out = append(out, n.pts.PV(int(it.i)))
		case n.leaf:
			for i := 0; i < n.pts.Len(); i++ {
				h.push(knnItem{distSq: q.DistSq(n.pts.At(i)), n: n, i: int32(i)})
			}
		default:
			for i, kid := range n.kids {
				h.push(knnItem{distSq: n.kidBox(i, 2*t.dim).MinDistSq(q), n: kid, i: -1})
			}
		}
	}
	return out
}

// Height returns the number of levels.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.kids[0] {
		h++
	}
	return h
}

// Stats reports structure statistics. IndexBytes counts the nodes, their
// boxes and child pointers; DataBytes the stored points and values.
func (t *Tree) Stats() core.Stats {
	var nodes, idxBytes int
	var rec func(n *node)
	rec = func(n *node) {
		nodes++
		idxBytes += int(unsafe.Sizeof(*n)) + 8*cap(n.bounds) + 8*cap(n.kids)
		for _, kid := range n.kids {
			rec(kid)
		}
	}
	rec(t.root)
	return core.Stats{
		Name:       "rtree",
		Count:      t.size,
		IndexBytes: idxBytes,
		DataBytes:  (8*t.dim + 8) * t.size,
		Height:     t.Height(),
		Models:     nodes,
	}
}
