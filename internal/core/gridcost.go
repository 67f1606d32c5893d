package core

import (
	"math"
	"sort"
)

// The cost model of the grid indexes (flood, lisa), after Flood's (Nathan,
// Ding, Alizadeh, Kraska: "Learning Multi-dimensional Indexes", SIGMOD 2020,
// §4): a layout has cols[d] equal-depth columns in dimension d, and each cell
// keeps its points in order along one refine dimension, so a rectangle
// touches the cells its column ranges span and hands to ScanRect only the
// points of those cells that lie inside its refine-dimension range. Flood is
// the layout with cols[refine] = 1; LISA has G columns in every dimension and
// refines on dimension 0.
//
// GridCellCost and GridPointCost weigh the two in candidate units: a cell
// touched costs its column arithmetic, the model searches of its refine
// range and the cache misses of a new run; a candidate one ScanRect
// comparison in a run already streaming. Least squares of Search's time on
// (cells touched, candidates) over 500 k OSM-like points at selectivities
// 1e-5 / 1e-4 / 1e-3 gave 290-380 ns a cell against 6.4-8.0 ns a candidate
// over flood layouts of 16 to 4 096 columns (37 and 59 candidates a cell,
// two runs), and 287 against 9.2 ns (31) over LISA grids of 8 to 256 columns
// (2-vCPU sandbox). On spatial-query's points every cell weight from 16 to
// 40 picks the same layouts (flood 128 columns, LISA 64; above 40 LISA
// drops to 32, which ran 17 % slower), so one pair serves both kinds.
const (
	GridCellCost  = 32.0
	GridPointCost = 1.0
)

// gridSampleSels are the selectivities of the query sample drawn from the
// data, the result fractions spatial-query sizes its three rectangle
// classes for, which E11 and the spatial gate bracket. The sample's squares
// are sized by the data extent, not by result count, so a square at a dense
// centre holds more than sel·n points and the sample only approximates that
// traffic. gridSampleCenters is the number of centres per selectivity.
var gridSampleSels = [...]float64{1e-5, 1e-4, 1e-3}

const gridSampleCenters = 64

// gridSelFloor keeps a selectivity off zero, so a range that holds no point
// in some dimension (a rectangle off the data) still hands on candidates.
const gridSelFloor = 1e-6

// GridSample returns the cost model's query sample drawn from the data:
// squares centred on evenly spaced input points, of side sel^(1/d) times the
// data extent ext in each dimension (a uniform set's sel, whatever the
// density at the centre), for each sample selectivity.
func GridSample(pvs []PV, ext Rect) []Rect {
	dim := ext.Dim()
	k := min(gridSampleCenters, len(pvs))
	out := make([]Rect, 0, k*len(gridSampleSels))
	for _, sel := range gridSampleSels {
		f := math.Pow(sel, 1/float64(dim)) / 2
		for i := 0; i < k; i++ {
			c := pvs[i*len(pvs)/k].Point
			r := Rect{Min: make(Point, dim), Max: make(Point, dim)}
			for d := 0; d < dim; d++ {
				h := f * (ext.Max[d] - ext.Min[d])
				r.Min[d], r.Max[d] = c[d]-h, c[d]+h
			}
			out = append(out, r)
		}
	}
	return out
}

// SortedColumns returns, for every dimension d, d's coordinates of pvs in
// ascending order and the order SortKeys gives them (sorted[d][i] is
// pvs[orders[d][i]].Point[d]).
func SortedColumns(pvs []PV, dim int) (sorted [][]float64, orders [][]int32) {
	sorted, orders = make([][]float64, dim), make([][]int32, dim)
	for d := range sorted {
		col := make([]float64, len(pvs))
		for i := range pvs {
			col[i] = pvs[i].Point[d]
		}
		orders[d] = SortKeys(col)
		sorted[d] = col
	}
	return sorted, orders
}

// GridModel is the cost model over one point set and one query sample.
type GridModel struct {
	n    float64
	sels [][]float64 // sels[q][d]: the share of the points inside query q's range in dimension d
}

// NewGridModel takes each query's per-dimension selectivity from the sorted
// coordinate columns of the points (sorted[d] for every dimension).
func NewGridModel(sorted [][]float64, queries []Rect) GridModel {
	n := len(sorted[0])
	m := GridModel{n: float64(n), sels: make([][]float64, len(queries))}
	for qi, q := range queries {
		s := make([]float64, len(sorted))
		for d, col := range sorted {
			lo := sort.SearchFloat64s(col, q.Min[d])
			hi := lo + sort.Search(n-lo, func(i int) bool { return col[lo+i] > q.Max[d] })
			s[d] = max(float64(hi-lo)/float64(n), gridSelFloor)
		}
		m.sels[qi] = s
	}
	return m
}

// Cost returns the model's mean cost of a sample query on the layout cols
// refined along dimension refine: a query of per-dimension selectivity s
// spans min(s_d·cols_d + 1, cols_d) columns in dimension d (the expected
// count at a random offset; ⌈s_d·cols_d⌉ + 1, the most it can span, made
// the tuner shun gridding more than two of five dimensions, and E19's flood
// ranges at d = 5 ran 2.3× slower for it), touches the product of those
// spans as cells, and hands on n · Π_{d≠refine}(span_d / cols_d) ·
// s_refine candidates.
func (m GridModel) Cost(cols []int, refine int) float64 {
	var cost float64
	for _, s := range m.sels {
		cells, frac := 1.0, s[refine]
		for d, c := range cols {
			fc := float64(c)
			span := min(s[d]*fc+1, fc)
			cells *= span
			if d != refine {
				frac *= span / fc
			}
		}
		cost += GridCellCost*cells + GridPointCost*m.n*frac
	}
	return cost / float64(max(len(m.sels), 1))
}

// N returns the number of points the model was made over.
func (m GridModel) N() int { return int(m.n) }
