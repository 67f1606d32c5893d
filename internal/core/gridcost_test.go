package core

import (
	"math"
	"testing"
)

// TestGridModelDegenerate builds the cost model on point sets whose extent
// is zero in some or every dimension: the sample squares have zero sides,
// selectivities fall to the floor or rise to 1, and every cost stays finite
// and positive.
func TestGridModelDegenerate(t *testing.T) {
	line := func(n int, f func(i int) Point) []PV {
		pvs := make([]PV, n)
		for i := range pvs {
			pvs[i] = PV{Point: f(i), Value: Value(i)}
		}
		return pvs
	}
	cases := map[string][]PV{
		"one":        line(1, func(int) Point { return Point{3, 4} }),
		"equal":      line(100, func(int) Point { return Point{3, 4} }),
		"vertical":   line(100, func(i int) Point { return Point{3, float64(i)} }),
		"horizontal": line(100, func(i int) Point { return Point{float64(i), 4} }),
		"5-D":        line(300, func(i int) Point { return Point{float64(i), float64(i % 7), 0, float64(i * i), -1} }),
	}
	for name, pvs := range cases {
		dim := pvs[0].Point.Dim()
		sorted, orders := SortedColumns(pvs, dim)
		for d := range sorted {
			for i, j := range orders[d] {
				if sorted[d][i] != pvs[j].Point[d] || (i > 0 && sorted[d][i] < sorted[d][i-1]) {
					t.Fatalf("%s: column %d not the sorted coordinates", name, d)
				}
			}
		}
		sample := GridSample(pvs, Bounds(pvs))
		if len(sample) == 0 {
			t.Fatalf("%s: empty sample", name)
		}
		m := NewGridModel(sorted, sample)
		for _, s := range m.sels {
			for d, v := range s {
				if !(v >= gridSelFloor && v <= 1) {
					t.Fatalf("%s: selectivity %g in dimension %d", name, v, d)
				}
			}
		}
		for _, c := range []int{1, 2, 64, 4096} {
			cols := make([]int, dim)
			for d := range cols {
				cols[d] = c
			}
			for refine := 0; refine < dim; refine++ {
				if cost := m.Cost(cols, refine); math.IsNaN(cost) || math.IsInf(cost, 0) || cost <= 0 {
					t.Fatalf("%s: cost %g at %d columns refined on %d", name, cost, c, refine)
				}
			}
		}
	}
}

// TestGridModelShape checks the model's two terms on uniform points: more
// columns touch more cells and hand on fewer candidates, and a one-cell
// layout hands on every point inside the refine range.
func TestGridModelShape(t *testing.T) {
	const side = 100
	var pvs []PV
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			pvs = append(pvs, PV{Point: Point{float64(x), float64(y)}})
		}
	}
	sorted, _ := SortedColumns(pvs, 2)
	q := []Rect{{Min: Point{10, 10}, Max: Point{19, 19}}} // a tenth of each dimension
	m := NewGridModel(sorted, q)
	if got, want := m.Cost([]int{1, 1}, 1), GridCellCost+GridPointCost*float64(len(pvs))*0.1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("one cell: cost %g, want %g", got, want)
	}
	// 10 columns: the query spans s·cols + 1 = 0.1·10 + 1 = 2 of them.
	if got, want := m.Cost([]int{10, 1}, 1), 2*GridCellCost+GridPointCost*float64(len(pvs))*0.2*0.1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("10 columns: cost %g, want %g", got, want)
	}
}
