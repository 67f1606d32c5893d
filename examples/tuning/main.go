// Tuning: Flood's learned layout. Generate correlated data and a skewed
// workload, let Flood's cost model pick the grid layout, and compare the
// tuned layout against naive fixed layouts and a workload-driven Qd-tree.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	lix "github.com/lix-go/lix"
)

func main() {
	// Correlated 2-D data (points near the diagonal) and thin queries:
	// the worst case for a uniform grid, the motivating case for Flood.
	const n = 300000
	r := rand.New(rand.NewSource(8))
	pvs := make([]lix.PV, n)
	for i := range pvs {
		base := r.Float64() * (1 << 20)
		pvs[i] = lix.PV{Point: lix.Point{
			clamp(base + r.NormFloat64()*12000),
			clamp(base + r.NormFloat64()*12000),
		}, Value: lix.Value(i)}
	}
	queries := make([]lix.Rect, 200)
	for i := range queries {
		c := pvs[r.Intn(n)].Point
		queries[i] = mustRect(
			lix.Point{clamp(c[0] - 40000), clamp(c[1] - 2000)},
			lix.Point{clamp(c[0] + 40000), clamp(c[1] + 2000)},
		)
	}
	train, test := queries[:100], queries[100:]

	tuned, err := lix.NewFlood(pvs, lix.FloodConfig{Queries: train})
	check(err)
	cols, sortDim := tuned.Layout()
	fmt.Printf("Flood's cost model chose cols=%v sortDim=%d\n\n", cols, sortDim)

	naive0, err := lix.NewFlood(pvs, lix.FloodConfig{SortDim: 0, Cols: []int{1, 64}})
	check(err)
	naive1, err := lix.NewFlood(pvs, lix.FloodConfig{SortDim: 1, Cols: []int{64, 1}})
	check(err)
	qd, err := lix.NewQdTree(pvs, train, lix.QdTreeConfig{})
	check(err)

	fmt.Printf("%-22s %12s %10s\n", "layout", "us/query", "avg work")
	for _, e := range []struct {
		name string
		ix   lix.SpatialIndex
	}{
		{"flood (tuned)", tuned},
		{"flood (64 cols dim0)", naive1},
		{"flood (64 cols dim1)", naive0},
		{"qd-tree (greedy)", qd},
	} {
		var work, count int
		start := time.Now()
		for _, q := range test {
			v, w := e.ix.Search(q, func(lix.PV) bool { return true })
			count += v
			work += w
		}
		us := float64(time.Since(start).Microseconds()) / float64(len(test))
		fmt.Printf("%-22s %12.1f %10d   (%d results)\n", e.name, us, work/len(test), count)
	}
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1<<20 {
		return 1<<20 - 1
	}
	return v
}

func mustRect(min, max lix.Point) lix.Rect {
	r, err := lix.NewRect(min, max)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
