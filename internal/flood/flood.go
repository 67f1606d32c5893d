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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/mlmodel"
)

// Config parameterizes a build.
type Config struct {
	// SortDim is the dimension cells are sorted by.
	SortDim int
	// Cols[d] is the number of columns in dimension d (ignored for
	// SortDim). Values < 1 are raised to 1.
	Cols []int
	// CDFSamples bounds the per-dimension CDF model size (0 -> 256).
	CDFSamples int
}

// Index is a Flood index.
type Index struct {
	cfg     Config
	dim     int
	side    float64         // longest side of the data extent
	cdfs    []*mlmodel.CDF  // per dimension (only grid dims used)
	cols    []int           // columns per dimension (1 for sort dim)
	offsets []int32         // cell -> start in pts; len = cells+1
	pts     core.PointStore // grouped by cell, sorted by sort dim inside
}

// Build constructs a Flood index with an explicit layout over the points
// (copied and reordered).
func Build(pvs []core.PV, cfg Config) (*Index, error) {
	dim, err := core.PointsDim(pvs)
	if err != nil {
		return nil, fmt.Errorf("flood: %w", err)
	}
	if cfg.SortDim < 0 || cfg.SortDim >= dim {
		return nil, fmt.Errorf("flood: sort dim %d out of range [0,%d)", cfg.SortDim, dim)
	}
	if cfg.CDFSamples <= 0 {
		cfg.CDFSamples = 256
	}
	if len(cfg.Cols) == 0 {
		cfg.Cols = make([]int, dim)
		per := int(math.Pow(float64(len(pvs))/64, 1/math.Max(1, float64(dim-1))))
		for d := range cfg.Cols {
			cfg.Cols[d] = per
		}
	}
	if len(cfg.Cols) != dim {
		return nil, fmt.Errorf("flood: cols len %d, want %d", len(cfg.Cols), dim)
	}
	ix := &Index{cfg: cfg, dim: dim}
	ix.cols = make([]int, dim)
	totalCells := 1
	for d := 0; d < dim; d++ {
		c := cfg.Cols[d]
		if c < 1 {
			c = 1
		}
		if d == cfg.SortDim {
			c = 1
		}
		ix.cols[d] = c
		if totalCells > (1<<26)/c {
			return nil, fmt.Errorf("flood: layout has too many cells")
		}
		totalCells *= c
	}
	// Per-dimension CDFs from sorted coordinate samples.
	ix.cdfs = make([]*mlmodel.CDF, dim)
	coord := make([]float64, len(pvs))
	ext := core.Bounds(pvs)
	for d := 0; d < dim; d++ {
		ix.side = max(ix.side, ext.Max[d]-ext.Min[d])
		if ix.cols[d] == 1 {
			continue
		}
		for i, pv := range pvs {
			coord[i] = pv.Point[d]
		}
		sort.Float64s(coord)
		ix.cdfs[d] = mlmodel.NewCDF(coord, cfg.CDFSamples)
	}
	// Bucket the points into cells, then sort each cell by the sort
	// dimension.
	cellOf := make([]int32, len(pvs))
	ix.offsets = make([]int32, totalCells+1)
	for i, pv := range pvs {
		cellOf[i] = int32(ix.cell(pv.Point))
		ix.offsets[cellOf[i]+1]++
	}
	for c := 0; c < totalCells; c++ {
		ix.offsets[c+1] += ix.offsets[c]
	}
	cursor := append([]int32(nil), ix.offsets[:totalCells]...)
	byCell := make([]int32, len(pvs))
	for i, c := range cellOf {
		byCell[cursor[c]] = int32(i)
		cursor[c]++
	}
	for c := 0; c < totalCells; c++ {
		slices.SortFunc(byCell[ix.offsets[c]:ix.offsets[c+1]], func(a, b int32) int {
			return cmp.Compare(pvs[a].Point[cfg.SortDim], pvs[b].Point[cfg.SortDim])
		})
	}
	ix.pts = core.NewPointStoreFrom(dim, pvs, byCell)
	return ix, nil
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
	lo, hi := ix.pts.DimRange(int(ix.offsets[c]), int(ix.offsets[c+1]), s, p[s], p[s])
	if i := ix.pts.Find(lo, hi, p); i >= 0 {
		return ix.pts.PV(i).Value, true
	}
	return 0, false
}

// Search calls fn for every point in rect; fn returning false stops.
// Returns points visited and cells touched.
func (ix *Index) Search(rect core.Rect, fn func(core.PV) bool) (visited, cells int) {
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
		cells++
		i, j := ix.pts.DimRange(int(ix.offsets[flat]), int(ix.offsets[flat+1]), s, rect.Min[s], rect.Max[s])
		n, cont := ix.pts.ScanRect(i, j, rect, fn)
		visited += n
		if !cont {
			return visited, cells
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
			return visited, cells
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
		IndexBytes: 4*len(ix.offsets) + cdfBytes,
		DataBytes:  ix.pts.Len() * (8*ix.dim + 8),
		Height:     1,
		Models:     ix.dim,
	}
}

// ---------------------------------------------------------------------------
// Layout tuning (the "learning" in Flood)
// ---------------------------------------------------------------------------

// TuneResult records the tuning outcome.
type TuneResult struct {
	Cols    []int
	SortDim int
	Cost    float64
	// Evaluated is the number of candidate layouts scored.
	Evaluated int
}

// cellCost and pointCost weight the cost model: touching a cell costs a
// binary search plus bookkeeping; scanning a point costs a comparison.
const (
	cellCost  = 24.0
	pointCost = 1.0
)

// Tune searches layouts against a sample workload and returns the best
// (columns vector, sort dimension) under the cost model. maxCells bounds
// layout size (0 selects n/8).
func Tune(pvs []core.PV, queries []core.Rect, maxCells int) (TuneResult, error) {
	if len(pvs) == 0 {
		return TuneResult{}, fmt.Errorf("flood: empty input")
	}
	if len(queries) == 0 {
		return TuneResult{}, fmt.Errorf("flood: tuning requires sample queries")
	}
	dim := pvs[0].Point.Dim()
	if maxCells <= 0 {
		maxCells = len(pvs) / 8
		if maxCells < 1 {
			maxCells = 1
		}
	}
	// Per-dim CDFs once.
	cdfs := make([]*mlmodel.CDF, dim)
	coord := make([]float64, len(pvs))
	for d := 0; d < dim; d++ {
		for i, pv := range pvs {
			coord[i] = pv.Point[d]
		}
		sort.Float64s(coord)
		cdfs[d] = mlmodel.NewCDF(coord, 256)
	}
	// Per-query per-dim selectivities.
	sel := make([][]float64, len(queries))
	for qi, q := range queries {
		sel[qi] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			f := cdfs[d].Predict(q.Max[d]) - cdfs[d].Predict(q.Min[d])
			if f < 1e-6 {
				f = 1e-6
			}
			sel[qi][d] = f
		}
	}
	n := float64(len(pvs))
	ladder := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	best := TuneResult{Cost: math.Inf(1)}
	cols := make([]int, dim)
	var enumerate func(d, cells int, sortDim int)
	var evaluated int
	evalLayout := func(sortDim int) {
		var cost float64
		for qi := range queries {
			cellsTouched := 1.0
			scanFrac := 1.0
			for d := 0; d < dim; d++ {
				if d == sortDim {
					continue
				}
				span := math.Ceil(sel[qi][d]*float64(cols[d])) + 1
				if span > float64(cols[d]) {
					span = float64(cols[d])
				}
				cellsTouched *= span
				scanFrac *= span / float64(cols[d])
			}
			// Within touched cells the sort-dim binary search limits the
			// scan to the query's sort-dim fraction.
			scanned := n * scanFrac * sel[qi][sortDim]
			cost += cellCost*cellsTouched + pointCost*scanned
		}
		evaluated++
		if cost < best.Cost {
			best.Cost = cost
			best.SortDim = sortDim
			best.Cols = append([]int(nil), cols...)
			best.Cols[sortDim] = 1
		}
	}
	enumerate = func(d, cells, sortDim int) {
		if evaluated > 100000 {
			return
		}
		if d == dim {
			evalLayout(sortDim)
			return
		}
		if d == sortDim {
			cols[d] = 1
			enumerate(d+1, cells, sortDim)
			return
		}
		for _, c := range ladder {
			if cells*c > maxCells {
				break
			}
			cols[d] = c
			enumerate(d+1, cells*c, sortDim)
		}
	}
	for s := 0; s < dim; s++ {
		enumerate(0, 1, s)
	}
	best.Evaluated = evaluated
	return best, nil
}

// BuildTuned tunes the layout on the sample workload and builds the index.
func BuildTuned(pvs []core.PV, queries []core.Rect, maxCells int) (*Index, TuneResult, error) {
	res, err := Tune(pvs, queries, maxCells)
	if err != nil {
		return nil, res, err
	}
	ix, err := Build(pvs, Config{SortDim: res.SortDim, Cols: res.Cols})
	return ix, res, err
}
