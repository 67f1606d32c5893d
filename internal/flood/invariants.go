package flood

import "fmt"

// CheckInvariants verifies the Flood layout: the grid's own invariants hold
// and the sort dimension has one column, the cell offsets and model
// offsets cover every cell and run from 0 to Len, every point lies in the
// cell it is stored under, in sort-dimension order, and each cell's model
// search finds the first of its points holding each sort-dimension value.
// It is O(n log n) and intended for tests.
func (ix *Index) CheckInvariants() error {
	s, cells := ix.cfg.SortDim, ix.grid.Cells()
	if err := ix.grid.CheckInvariants(); err != nil {
		return fmt.Errorf("flood: %w", err)
	}
	if c := ix.grid.Cols[s]; c != 1 {
		return fmt.Errorf("flood: %d columns in the sort dimension %d", c, s)
	}
	if len(ix.offsets) != cells+1 || ix.offsets[0] != 0 || int(ix.offsets[cells]) != ix.pts.Len() {
		return fmt.Errorf("flood: %d cell offsets for %d cells of %d points", len(ix.offsets), cells, ix.pts.Len())
	}
	if len(ix.segOff) != cells+1 || len(ix.segErr) != cells || int(ix.segOff[cells]) != len(ix.segs) {
		return fmt.Errorf("flood: %d model offsets and %d error bounds for %d cells", len(ix.segOff), len(ix.segErr), cells)
	}
	for c := 0; c < cells; c++ {
		lo, hi := int(ix.offsets[c]), int(ix.offsets[c+1])
		if hi < lo || ix.segOff[c+1] < ix.segOff[c] || ix.segErr[c] < 0 {
			return fmt.Errorf("flood: cell %d holds [%d,%d), model error %d", c, lo, hi, ix.segErr[c])
		}
		for i := lo; i < hi; i++ {
			p := ix.pts.At(i)
			if got := ix.grid.Cell(p); got != c {
				return fmt.Errorf("flood: point %d %v stored in cell %d, maps to %d", i, p, c, got)
			}
			if i == lo || ix.pts.At(i - 1)[s] < p[s] {
				if j := ix.bound(c, lo, hi, p[s], false); j != i {
					return fmt.Errorf("flood: cell %d model search for %g gives %d, want %d", c, p[s], j, i)
				}
			} else if ix.pts.At(i - 1)[s] > p[s] {
				return fmt.Errorf("flood: cell %d out of sort-dimension order at %d", c, i)
			}
		}
	}
	return nil
}
