package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestBuildCellsMatchPlace holds the cell ranks Ranks gives in one pass over
// each sorted column to those Cell gives point by point, on lattice points
// with ±0, ±Inf and NaN among the coordinates: rarely, and so often that
// NaNs, which sort first, become column boundaries. The grids have unequal
// column counts per dimension, and some a dimension of one column, as
// flood's sort dimension is.
func TestBuildCellsMatchPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1112))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	for _, cols := range [][]int{{4, 16}, {16, 1}, {1, 4, 16}, {16, 4, 4}} {
		for _, specials := range []int{20, 2} {
			pvs := make([]PV, 2000)
			for i := range pvs {
				p := make(Point, len(cols))
				for j := range p {
					if rng.Intn(specials) == 0 {
						p[j] = special[rng.Intn(len(special))]
					} else {
						p[j] = float64(rng.Intn(9))
					}
				}
				pvs[i] = PV{Point: p, Value: Value(i)}
			}
			sorted, orders := SortedColumns(pvs, len(cols))
			g, err := NewGrid(sorted, cols, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("columns %v, 1/%d specials: %v", cols, specials, err)
			}
			for i, rank := range g.Ranks(len(pvs), sorted, orders) {
				if want := g.Cell(pvs[i].Point); int(rank) != want {
					t.Fatalf("columns %v, 1/%d specials: point %v in cell %d, Cell gives %d", cols, specials, pvs[i].Point, rank, want)
				}
			}
		}
	}
	if _, err := NewGrid([][]float64{{1, 2}, {1, 2}}, []int{1 << 10, 1 << 11}, 1<<20); err == nil {
		t.Fatal("a grid of 2^21 cells built under a bound of 2^20")
	}
}
