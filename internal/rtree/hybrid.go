package rtree

import (
	"fmt"
	"slices"

	"github.com/lix-go/lix/internal/core"
)

// Hybrid is an ML-enhanced R-tree in the spirit of the "AI+R"-tree
// (Al-Mamun et al., MDM 2022): a learned model — here a grid over leaf
// MBRs, the simplest instance-optimized predictor — maps a point query
// directly to its candidate leaf nodes, skipping the root-to-leaf
// traversal. Queries whose candidate set is too large (the model predicts
// badly there) fall back to the traditional R-tree search, mirroring the
// paper's query classifier that routes "hard" queries down the traditional
// path.
//
// Taxonomy: hybrid (R-tree branch), Approach 1 — a traditional index
// augmented with an ML model.
type Hybrid struct {
	tree   *Tree
	cells  int
	min    core.Point
	max    core.Point
	leaves []*node
	boxes  []float64 // leaf i's MBR at [2*dim*i, 2*dim*(i+1))
	grid   [][]int32 // cell -> candidate leaves
	// MaxCandidates bounds the learned path; larger candidate sets fall
	// back to the traditional search.
	MaxCandidates int
	// Diagnostics.
	LearnedHits int
	Fallbacks   int
}

// NewHybrid wraps a bulk-loaded tree with a leaf-prediction grid of
// cells^dim buckets (cells 0 selects 32 for 2-D, 16 for 3-D+).
func NewHybrid(t *Tree, cells int) (*Hybrid, error) {
	if t.size == 0 {
		return nil, fmt.Errorf("rtree: hybrid over empty tree")
	}
	if cells <= 0 {
		if t.dim <= 2 {
			cells = 32
		} else {
			cells = 16
		}
	}
	total := 1
	for d := 0; d < t.dim; d++ {
		if total > (1<<24)/cells {
			return nil, fmt.Errorf("rtree: hybrid grid too large")
		}
		total *= cells
	}
	h := &Hybrid{tree: t, cells: cells, MaxCandidates: 8}
	world := make([]float64, 2*t.dim)
	t.root.mbr(world)
	h.min, h.max = world[:t.dim], world[t.dim:]
	for d := 0; d < t.dim; d++ {
		if !(h.max[d] > h.min[d]) {
			h.max[d] = h.min[d] + 1
		}
	}
	h.grid = make([][]int32, total)
	h.indexLeaves(t.root)
	return h, nil
}

// indexLeaves registers every leaf in all grid cells its MBR overlaps.
func (h *Hybrid) indexLeaves(n *node) {
	if n.leaf {
		id, at := int32(len(h.leaves)), len(h.boxes)
		h.leaves = append(h.leaves, n)
		h.boxes = append(h.boxes, make([]float64, 2*h.tree.dim)...)
		r := h.boxes[at:]
		n.mbr(r)
		lo, hi := make([]int, h.tree.dim), make([]int, h.tree.dim)
		for d := 0; d < h.tree.dim; d++ {
			lo[d] = h.cell(d, r[d])
			hi[d] = h.cell(d, r[h.tree.dim+d])
		}
		idx := slices.Clone(lo)
		for {
			flat := 0
			for d := 0; d < h.tree.dim; d++ {
				flat = flat*h.cells + idx[d]
			}
			h.grid[flat] = append(h.grid[flat], id)
			d := h.tree.dim - 1
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
		return
	}
	for _, kid := range n.kids {
		h.indexLeaves(kid)
	}
}

func (h *Hybrid) cell(d int, v float64) int {
	c := int((v - h.min[d]) / (h.max[d] - h.min[d]) * float64(h.cells))
	if c < 0 {
		c = 0
	}
	if c >= h.cells {
		c = h.cells - 1
	}
	return c
}

// PointSearch finds all stored points equal to p, calling fn for each. It
// returns points found and leaves inspected. The learned path inspects the
// predicted candidate leaves directly; oversized candidate sets fall back
// to the traditional R-tree search.
func (h *Hybrid) PointSearch(p core.Point, fn func(core.PV) bool) (found, leaves int) {
	if p.Dim() != h.tree.dim {
		return 0, 0
	}
	flat := 0
	for d := 0; d < h.tree.dim; d++ {
		flat = flat*h.cells + h.cell(d, p[d])
	}
	cands := h.grid[flat]
	if len(cands) == 0 || len(cands) > h.MaxCandidates {
		// Model is uninformative here: traditional path.
		h.Fallbacks++
		return h.tree.Search(core.Rect{Min: p, Max: p}, fn)
	}
	h.LearnedHits++
	w := 2 * h.tree.dim
	for _, id := range cands {
		if !box(h.boxes[int(id)*w : int(id+1)*w]).Contains(p) {
			continue
		}
		leaves++
		pts := &h.leaves[id].pts
		for i := pts.Find(0, pts.Len(), p); i >= 0; i = pts.Find(i+1, pts.Len(), p) {
			found++
			if !fn(pts.PV(i)) {
				return found, leaves
			}
		}
	}
	return found, leaves
}

// Len returns the number of points.
func (h *Hybrid) Len() int { return h.tree.Len() }

// Lookup returns the value of a stored point equal to p, through
// PointSearch.
func (h *Hybrid) Lookup(p core.Point) (core.Value, bool) {
	var out core.Value
	found := false
	h.PointSearch(p, func(pv core.PV) bool {
		out, found = pv.Value, true
		return false
	})
	return out, found
}

// Search delegates range queries to the traditional R-tree (as in the
// AI+R-tree, whose learned path targets point-style queries).
func (h *Hybrid) Search(rect core.Rect, fn func(core.PV) bool) (visited, nodes int) {
	return h.tree.Search(rect, fn)
}

// Stats reports structure statistics including the prediction grid.
func (h *Hybrid) Stats() core.Stats {
	st := h.tree.Stats()
	st.Name = "learned-rtree"
	ids := 0
	for _, c := range h.grid {
		ids += len(c)
	}
	st.IndexBytes += len(h.grid)*24 + ids*4 + len(h.leaves)*8 + len(h.boxes)*8
	return st
}
