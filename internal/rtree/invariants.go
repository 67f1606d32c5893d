package rtree

import (
	"fmt"
	"slices"
)

// CheckInvariants verifies the R-tree's structural invariants: every inner
// node holds one box per child and that box is exactly the child's MBR (so
// pruning during search and kNN is sound), all leaves sit at uniform depth,
// node entry counts respect the capacity bound, no non-root node is empty,
// and size matches the leaf point count. It is O(n) and intended for tests.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	w := 2 * t.dim
	leafDepth := -1
	total := 0
	mbr := make([]float64, w)
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		if n.count() > t.maxEntries {
			return fmt.Errorf("rtree: node holds %d entries > max %d", n.count(), t.maxEntries)
		}
		if depth > 0 && n.count() == 0 {
			return fmt.Errorf("rtree: empty non-root node at depth %d", depth)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaf at depth %d, expected %d", depth, leafDepth)
			}
			if len(n.kids) != 0 || len(n.bounds) != 0 {
				return fmt.Errorf("rtree: leaf has %d children and %d bounds", len(n.kids), len(n.bounds))
			}
			if n.pts.Len() > 0 && n.pts.At(0).Dim() != t.dim {
				return fmt.Errorf("rtree: leaf point dim %d, tree dim %d", n.pts.At(0).Dim(), t.dim)
			}
			total += n.pts.Len()
			return nil
		}
		if n.pts.Len() != 0 {
			return fmt.Errorf("rtree: inner node holds %d points", n.pts.Len())
		}
		if len(n.bounds) != w*len(n.kids) {
			return fmt.Errorf("rtree: inner node has %d bounds for %d children of dim %d", len(n.bounds), len(n.kids), t.dim)
		}
		for i, kid := range n.kids {
			if kid == nil {
				return fmt.Errorf("rtree: inner entry %d has no child", i)
			}
			if kid.count() == 0 {
				return fmt.Errorf("rtree: inner entry %d points at an empty node", i)
			}
			kid.mbr(mbr)
			if b := n.bounds[i*w : (i+1)*w]; !slices.Equal(b, mbr) {
				return fmt.Errorf("rtree: inner entry %d box %v is not its child's MBR %v", i, b, mbr)
			}
			if err := walk(kid, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if total != t.size {
		return fmt.Errorf("rtree: size=%d but leaves hold %d points", t.size, total)
	}
	return nil
}
