package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Grid is the engine of the native-space grid indexes (flood, lisa), the
// paper's Approach 4: each dimension is cut into equal-depth columns at
// exact quantiles of its sorted coordinates, and a point's cell is the
// row-major rank of its columns. The owner keeps what it stores per cell:
// flood a run per cell, ordered along its sort dimension, with a model of
// each run; LISA shards of runs in rank order. A learned CDF in place of
// the quantiles flattens skew no better than the quantiles do and is
// slower to look up (EXPERIMENTS E16).
type Grid struct {
	// Cols[d] is the number of columns in dimension d, at least 1.
	Cols []int
	// Bounds[d] holds the Cols[d]+1 boundaries of dimension d: -Inf, the
	// coordinates at every Cols[d]-th of the sorted column, which ascend as
	// cmp.Compare orders them (NaNs first), and +Inf. Column c holds the
	// values from Bounds[d][c] up to Bounds[d][c+1]. A dimension of one
	// column has none. Heavy ties collapse columns, which is harmless.
	Bounds [][]float64
	Side   float64 // longest side of the data extent, the first kNN window's scale
	cells  int
}

// NewGrid builds the grid of cols[d] columns in each dimension d from
// sorted[d], the dimension's coordinates in ascending order (SortedColumns).
// It fails when the cells would number more than maxCells.
func NewGrid(sorted [][]float64, cols []int, maxCells uint64) (Grid, error) {
	g, cells := Grid{Cols: cols, Bounds: make([][]float64, len(cols))}, uint64(1)
	for d, c := range cols {
		if c < 1 || cells > maxCells/uint64(c) {
			return Grid{}, fmt.Errorf("columns %v make over %d cells", cols, maxCells)
		}
		col := sorted[d]
		if cells *= uint64(c); len(col) > 0 {
			g.Side = max(g.Side, col[len(col)-1]-col[0])
		}
		if c == 1 {
			continue
		}
		b := make([]float64, c+1)
		b[0], b[c] = math.Inf(-1), math.Inf(1)
		for i := 1; i < c; i++ {
			b[i] = col[i*len(col)/c]
		}
		g.Bounds[d] = b
	}
	g.cells = int(cells)
	return g, nil
}

// Cells returns the number of cells.
func (g *Grid) Cells() int { return g.cells }

// Column returns the column of v in dimension d: the last whose lowest
// boundary is at most v, or the first for a v below them all (a NaN).
func (g *Grid) Column(d int, v float64) int {
	b := g.Bounds[d]
	if b == nil {
		return 0
	}
	// One before the first boundary not below v's successor.
	c, _ := slices.BinarySearch(b, math.Nextafter(v, math.Inf(1)))
	return min(max(c-1, 0), g.Cols[d]-1)
}

// Cell returns the rank of p's cell.
func (g *Grid) Cell(p Point) int {
	r := 0
	for d, c := range g.Cols {
		r = r*c + g.Column(d, p[d])
	}
	return r
}

// Ranks returns the rank of each of n points' cells, ranks[i] for the
// point sorted[d][k] came from when orders[d][k] is i, as Cell gives it.
// Column's test, that a boundary is below v's successor, holds on a prefix
// of the boundaries and moves up with v, so one pass over each sorted column
// finds every point's column.
func (g *Grid) Ranks(n int, sorted [][]float64, orders [][]int32) []uint32 {
	ranks := make([]uint32, n)
	for d, b := range g.Bounds {
		if b == nil {
			continue
		}
		c, cols := 0, g.Cols[d]
		for k, v := range sorted[d] {
			t := math.Nextafter(v, math.Inf(1))
			for c < len(b) && cmp.Less(b[c], t) {
				c++
			}
			j := orders[d][k]
			ranks[j] = ranks[j]*uint32(cols) + uint32(min(max(c-1, 0), cols-1))
		}
	}
	return ranks
}

// Walk calls fn with the rank of every cell r's column ranges span, in rank
// order, until fn returns false. A cell's column in dimension 0 is its rank
// over the cells a column of dimension 0 spans (Cells()/Cols[0]).
func (g *Grid) Walk(r Rect, fn func(rank int) bool) {
	var buf [2 * 8]int // on the stack for the usual dimensionalities
	span := buf[:0]
	for d := range g.Cols {
		span = append(span, g.Column(d, r.Min[d]), g.Column(d, r.Max[d]))
	}
	g.walk(span, 0, fn)
}

// walk calls fn on the cells of span's column ranges, a low and a high column
// for each of the last len(span)/2 dimensions, under the rank prefix rank.
func (g *Grid) walk(span []int, rank int, fn func(rank int) bool) bool {
	d := len(g.Cols) - len(span)/2
	for c := span[0]; c <= span[1]; c++ {
		if r := rank*g.Cols[d] + c; len(span) == 2 && !fn(r) || len(span) > 2 && !g.walk(span[2:], r, fn) {
			return false
		}
	}
	return true
}

// KNN returns the k nearest of the n points to q in ascending distance
// order, through search, the owner's rectangle search, over a window grown
// round q.
func (g *Grid) KNN(q Point, k, n int, search func(Rect, func(PV) bool) (int, int)) []PV {
	if q.Dim() != len(g.Cols) {
		return nil
	}
	return KNNByWindow(q, k, n, g.Side, search)
}

// Bytes returns the bytes the boundaries take.
func (g *Grid) Bytes() int {
	n := 0
	for _, b := range g.Bounds {
		n += 8 * len(b)
	}
	return n
}

// CheckInvariants verifies the grid: at least one column in every
// dimension, and each gridded dimension's boundaries running from -Inf to
// +Inf, the ones between not decreasing as cmp.Compare orders them.
func (g *Grid) CheckInvariants() error {
	if len(g.Bounds) != len(g.Cols) {
		return fmt.Errorf("%d boundary sets for %d dimensions", len(g.Bounds), len(g.Cols))
	}
	for d, c := range g.Cols {
		b := g.Bounds[d]
		if c < 1 || (c == 1 && b != nil) ||
			(c > 1 && (len(b) != c+1 || !math.IsInf(b[0], -1) || !math.IsInf(b[c], 1))) {
			return fmt.Errorf("dimension %d has boundaries %v for %d columns", d, b, c)
		}
		for i := 2; i < len(b)-1; i++ {
			if cmp.Less(b[i], b[i-1]) {
				return fmt.Errorf("dimension %d boundary %d is %g after %g", d, i, b[i], b[i-1])
			}
		}
	}
	return nil
}
