// Package flood implements Flood (Nathan, Ding, Alizadeh, Kraska:
// "Learning Multi-dimensional Indexes", SIGMOD 2020): a native-space
// multi-dimensional index that *learns its layout*. All dimensions but one
// are partitioned into equal-depth columns using per-dimension CDF models;
// the remaining "sort dimension" orders points within each grid cell. The
// number of columns per dimension and the choice of sort dimension are
// tuned against a sample workload with a cost model — that workload-driven
// layout search is the system's contribution (Approach 4, native space).
package flood

import (
	"fmt"
	"math"
	"slices"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/mlmodel"
	"github.com/lix-go/lix/internal/segment"
)

// Config parameterizes a build.
type Config struct {
	// SortDim is the dimension cells are sorted by; it is honoured only
	// with Cols.
	SortDim int
	// Cols[d] is the number of columns in dimension d (ignored for
	// SortDim). Values < 1 are raised to 1. Empty takes the columns and the
	// sort dimension the cost model picks on Queries.
	Cols []int
	// CDFSamples bounds the per-dimension CDF model size (0 -> 256).
	CDFSamples int
	// Queries is the sample workload the layout is tuned on when Cols is
	// empty; empty takes a query sample drawn from the data
	// (core.GridSample).
	Queries []core.Rect
}

// cellModelErr is the error bound of the per-cell models (Flood §4.2): a
// piecewise linear model of each cell's sort-dimension values predicts a
// value's position in the cell to within this many slots, and the search
// starts in that window. Over 500 k OSM-like points at 128 columns, point
// lookups (half stored, half perturbed) took a median 545 ns with a bound of
// 4, 560 with 8, 605 with 16 and 635 with 64, against 709 ns for a binary
// search over the whole cell and 616 ns at the 7 812 columns the old
// n/64-points-a-column rule gave (15 interleaved rounds, 2-vCPU sandbox). A
// bound of 4 costs about 11 k segments, 0.5 B a point.
const cellModelErr = 4

// cellSeg is one segment of a cell's model: from the sort-dimension value
// segFirst[i] on, the position in the cell is slope·(v - segFirst[i]) + at.
// The first values are a column of their own, so the search for a segment
// reads them densely.
type cellSeg struct{ slope, at float64 }

// Index is a Flood index.
type Index struct {
	cfg      Config
	dim      int
	side     float64        // longest side of the data extent
	cdfs     []*mlmodel.CDF // per dimension (only grid dims used)
	cols     []int          // columns per dimension (1 for sort dim)
	offsets  []int32        // cell -> start in pts; len = cells+1
	segOff   []int32        // cell -> its model's first segment in segs; len = cells+1
	segFirst []float64      // the per-cell models' segments, cell after cell
	segs     []cellSeg
	segErr   []int32         // cell -> its model's largest error, in positions
	pts      core.PointStore // grouped by cell, sorted by sort dim inside
}

// Build constructs a Flood index over the points (copied and reordered) in
// cfg's layout, or in the layout tuned on cfg.Queries when cfg.Cols is
// empty.
func Build(pvs []core.PV, cfg Config) (*Index, error) {
	dim, err := core.PointsDim(pvs)
	if err != nil {
		return nil, fmt.Errorf("flood: %w", err)
	}
	if cfg.SortDim < 0 || cfg.SortDim >= dim {
		return nil, fmt.Errorf("flood: sort dim %d out of range [0,%d)", cfg.SortDim, dim)
	}
	if len(cfg.Cols) != 0 && len(cfg.Cols) != dim {
		return nil, fmt.Errorf("flood: cols len %d, want %d", len(cfg.Cols), dim)
	}
	tuned := len(cfg.Cols) == 0
	sorted, orders := core.SortedColumns(pvs, dim, func(d int) bool {
		return tuned || d == cfg.SortDim || cfg.Cols[d] > 1
	})
	if tuned {
		if len(cfg.Queries) == 0 {
			cfg.Queries = core.GridSample(pvs, core.Bounds(pvs))
		}
		cfg.Cols, cfg.SortDim = tune(core.NewGridModel(sorted, cfg.Queries), dim)
	}
	cfg.Queries = nil // the index keeps cfg, not the sample
	return build(pvs, dim, cfg, sorted, orders[cfg.SortDim])
}

// build lays the points out in cfg's layout; sorted holds the sorted
// coordinate column of every gridded dimension and of the sort dimension,
// whose order is order.
func build(pvs []core.PV, dim int, cfg Config, sorted [][]float64, order []int32) (*Index, error) {
	if cfg.CDFSamples <= 0 {
		cfg.CDFSamples = 256
	}
	ix := &Index{cfg: cfg, dim: dim}
	ix.cols = make([]int, dim)
	totalCells := 1
	for d := 0; d < dim; d++ {
		c := max(cfg.Cols[d], 1)
		if d == cfg.SortDim {
			c = 1
		}
		ix.cols[d] = c
		if totalCells > (1<<26)/c {
			return nil, fmt.Errorf("flood: layout has too many cells")
		}
		totalCells *= c
	}
	// Per-dimension CDFs from the sorted coordinate columns.
	ix.cdfs = make([]*mlmodel.CDF, dim)
	ext := core.Bounds(pvs)
	for d := 0; d < dim; d++ {
		ix.side = max(ix.side, ext.Max[d]-ext.Min[d])
		if ix.cols[d] > 1 {
			ix.cdfs[d] = mlmodel.NewCDF(sorted[d], cfg.CDFSamples)
		}
	}
	// The points in sort-dimension order, bucketed into cells by a stable
	// pass, so each cell comes out sorted.
	s := cfg.SortDim
	cellOf := make([]int32, len(pvs))
	ix.offsets = make([]int32, totalCells+1)
	for i := range pvs {
		cellOf[i] = int32(ix.cell(pvs[i].Point))
		ix.offsets[cellOf[i]+1]++
	}
	for c := 0; c < totalCells; c++ {
		ix.offsets[c+1] += ix.offsets[c]
	}
	cursor := slices.Clone(ix.offsets[:totalCells])
	byCell := make([]int32, len(pvs))
	for _, i := range order {
		c := cellOf[i]
		byCell[cursor[c]] = i
		cursor[c]++
	}
	// Each cell's run of sort-dimension values, cell after cell, in the
	// sorted column's buffer.
	keys := sorted[s]
	for j, i := range byCell {
		keys[j] = pvs[i].Point[s]
	}
	ix.pts = core.NewPointStoreFrom(dim, pvs, byCell)
	ix.fitCells(keys)
	return ix, nil
}

// fitCells fits each cell's model to its run of sort-dimension values
// (keys, cell after cell) and records its largest error.
func (ix *Index) fitCells(keys []float64) {
	cells := len(ix.offsets) - 1
	ix.segOff = make([]int32, cells+1)
	ix.segErr = make([]int32, cells)
	pos := make([]float64, 0)
	for c := 0; c < cells; c++ {
		run := keys[ix.offsets[c]:ix.offsets[c+1]]
		for len(pos) < len(run) {
			pos = append(pos, float64(len(pos)))
		}
		fit := segment.BuildAnchored(run, pos[:len(run)], cellModelErr)
		for _, sg := range fit {
			ix.segFirst = append(ix.segFirst, sg.FirstKey)
			ix.segs = append(ix.segs, cellSeg{slope: sg.Slope, at: sg.Intercept})
		}
		ix.segErr[c] = int32(math.Ceil(segment.MaxError(run, pos, fit)))
		ix.segOff[c+1] = int32(len(ix.segs))
	}
}

// bound returns the first position of cell c, which holds [lo, hi), whose
// sort-dimension value is at least v (above v when after is set), searching
// from the cell model's prediction; from narrows the search to [from, hi).
func (ix *Index) bound(c, from, hi int, v float64, after bool) int {
	lo := int(ix.offsets[c])
	a, b := int(ix.segOff[c]), int(ix.segOff[c+1])
	if a == b {
		return from
	}
	// The last segment starting at or below v, or the first.
	for a++; a < b; {
		if mid := int(uint(a+b) >> 1); ix.segFirst[mid] <= v {
			a = mid + 1
		} else {
			b = mid
		}
	}
	sg := &ix.segs[a-1]
	p := sg.slope*(v-ix.segFirst[a-1]) + sg.at
	if !(p >= 0) { // NaN or below the cell
		p = 0
	}
	guess := lo + int(min(p, float64(hi-lo)))
	return ix.pts.DimBound(from, hi, ix.cfg.SortDim, v, after, guess, int(ix.segErr[c]))
}

// column maps coordinate v in dimension d to its column index.
func (ix *Index) column(d int, v float64) int {
	if ix.cols[d] == 1 {
		return 0
	}
	c := int(ix.cdfs[d].Predict(v) * float64(ix.cols[d]))
	if c >= ix.cols[d] {
		c = ix.cols[d] - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// cell returns the flattened cell index of p.
func (ix *Index) cell(p core.Point) int {
	c := 0
	for d := 0; d < ix.dim; d++ {
		c = c*ix.cols[d] + ix.column(d, p[d])
	}
	return c
}

// Len returns the number of points.
func (ix *Index) Len() int { return ix.pts.Len() }

// Layout returns the columns-per-dimension vector and the sort dimension.
func (ix *Index) Layout() ([]int, int) {
	return append([]int(nil), ix.cols...), ix.cfg.SortDim
}

// Cells returns the total number of grid cells.
func (ix *Index) Cells() int { return len(ix.offsets) - 1 }

// Lookup returns the value of the point equal to p.
func (ix *Index) Lookup(p core.Point) (core.Value, bool) {
	if p.Dim() != ix.dim {
		return 0, false
	}
	c, s := ix.cell(p), ix.cfg.SortDim
	hi := int(ix.offsets[c+1])
	i := ix.bound(c, int(ix.offsets[c]), hi, p[s], false)
	if i = ix.pts.Find(i, ix.pts.DimBound(i, hi, s, p[s], true, i, 0), p); i >= 0 {
		return ix.pts.PV(i).Value, true
	}
	return 0, false
}

// Search calls fn for every point in rect; fn returning false stops.
// Returns points visited and candidate records scanned.
func (ix *Index) Search(rect core.Rect, fn func(core.PV) bool) (visited, scanned int) {
	if rect.Dim() != ix.dim {
		return 0, 0
	}
	// Column bounds and the odometer over them; on the stack for the usual
	// dimensionalities.
	var buf [3 * 8]int
	b := buf[:]
	if 3*ix.dim > len(b) {
		b = make([]int, 3*ix.dim)
	}
	lo, hi, idx := b[:ix.dim], b[ix.dim:2*ix.dim], b[2*ix.dim:3*ix.dim]
	for d := 0; d < ix.dim; d++ {
		lo[d] = ix.column(d, rect.Min[d])
		hi[d] = ix.column(d, rect.Max[d])
		idx[d] = lo[d]
	}
	s := ix.cfg.SortDim
	for {
		flat := 0
		for d := 0; d < ix.dim; d++ {
			flat = flat*ix.cols[d] + idx[d]
		}
		first, last := int(ix.offsets[flat]), int(ix.offsets[flat+1])
		i := ix.bound(flat, first, last, rect.Min[s], false)
		j := ix.bound(flat, i, last, rect.Max[s], true)
		n, cont := ix.pts.ScanRect(i, j, rect, fn)
		visited += n
		scanned += j - i
		if !cont {
			return visited, scanned
		}
		// Odometer over grid dims (the sort dim has one column).
		d := ix.dim - 1
		for ; d >= 0; d-- {
			if idx[d]++; idx[d] <= hi[d] {
				break
			}
			idx[d] = lo[d]
		}
		if d < 0 {
			return visited, scanned
		}
	}
}

// KNN returns the k nearest points to q in ascending distance order.
func (ix *Index) KNN(q core.Point, k int) []core.PV {
	if q.Dim() != ix.dim {
		return nil
	}
	return core.KNNByWindow(q, k, ix.pts.Len(), ix.side, ix.Search)
}

// Stats reports structure statistics.
func (ix *Index) Stats() core.Stats {
	cdfBytes := 0
	for _, c := range ix.cdfs {
		if c != nil {
			cdfBytes += c.Bytes()
		}
	}
	return core.Stats{
		Name:       "flood",
		Count:      ix.pts.Len(),
		IndexBytes: 4*len(ix.offsets) + 4*len(ix.segOff) + 4*len(ix.segErr) + 24*len(ix.segs) + cdfBytes,
		DataBytes:  ix.pts.Len() * (8*ix.dim + 8),
		Height:     1,
		Models:     ix.dim,
	}
}

// ---------------------------------------------------------------------------
// Layout tuning (the "learning" in Flood)
// ---------------------------------------------------------------------------

// tune enumerates the layouts with a power-of-two column count in every
// dimension but the sort dimension, any sort dimension, and at most n/8
// cells, and returns the columns and sort dimension of least modelled cost.
func tune(m core.GridModel, dim int) (bestCols []int, bestSort int) {
	maxCells := max(m.N()/8, 1)
	bestCost, evaluated := math.Inf(1), 0
	cols := make([]int, dim)
	var enumerate func(d, cells, sortDim int)
	enumerate = func(d, cells, sortDim int) {
		if evaluated > 100000 {
			return
		}
		if d == dim {
			evaluated++
			if cost := m.Cost(cols, sortDim); cost < bestCost {
				bestCost, bestSort, bestCols = cost, sortDim, slices.Clone(cols)
			}
			return
		}
		if d == sortDim {
			cols[d] = 1
			enumerate(d+1, cells, sortDim)
			return
		}
		for c := 1; cells*c <= maxCells; c *= 2 {
			cols[d] = c
			enumerate(d+1, cells*c, sortDim)
		}
	}
	for s := 0; s < dim; s++ {
		enumerate(0, 1, s)
	}
	return bestCols, bestSort
}
