// Spatial: index two-dimensional points with learned multi-dimensional
// indexes (ZM-index, ML-Index, LISA) and a traditional R-tree, then run
// point, range, and kNN queries on all of them.
//
//	go run ./examples/spatial
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	lix "github.com/lix-go/lix"
)

func main() {
	// Synthetic "city" data: clusters of points, like OSM extracts.
	const n = 200000
	r := rand.New(rand.NewSource(1))
	pvs := make([]lix.PV, n)
	for i := range pvs {
		cx := float64(r.Intn(8))*120000 + 30000
		cy := float64(r.Intn(8))*120000 + 30000
		pvs[i] = lix.PV{
			Point: lix.Point{clamp(cx + r.NormFloat64()*8000), clamp(cy + r.NormFloat64()*8000)},
			Value: lix.Value(i),
		}
	}

	// Each kind is built by name with its defaults; every one of these
	// also answers kNN.
	kinds := []string{"zm", "zm-hilbert", "mlindex", "lisa", "rtree"}
	indexes := make([]lix.KNNIndex, len(kinds))
	for i, kind := range kinds {
		ix, err := lix.BuildSpatial(kind, pvs)
		check(err)
		indexes[i] = ix.(lix.KNNIndex)
	}

	// Range query: a city-sized window.
	window, err := lix.NewRect(lix.Point{140000, 140000}, lix.Point{160000, 160000})
	check(err)
	fmt.Println("Range query over a 20k x 20k window:")
	for i, ix := range indexes {
		start := time.Now()
		count, work := ix.Search(window, func(lix.PV) bool { return true })
		fmt.Printf("  %-13s %6d points  (work=%d, %v)\n", kinds[i], count, work, time.Since(start).Round(time.Microsecond))
	}

	// kNN query.
	q := lix.Point{150000, 150000}
	fmt.Println("\n10 nearest neighbors of", q, ":")
	for i, ix := range indexes {
		start := time.Now()
		nn := ix.KNN(q, 10)
		fmt.Printf("  %-13s nearest dist=%.1f  (%v)\n", kinds[i], q.Dist(nn[0].Point), time.Since(start).Round(time.Microsecond))
	}

	// Exact-point lookup.
	fmt.Println("\nExact-point lookups:")
	for i, ix := range indexes {
		v, ok := ix.Lookup(pvs[12345].Point)
		fmt.Printf("  %-13s Lookup -> value=%d ok=%v\n", kinds[i], v, ok)
	}

	// LISA supports inserts (delta buffers + shard splits).
	fmt.Println("\nInserting 50k new points into LISA...")
	lisaIx := indexes[3].(lix.MutableSpatialIndex)
	for i := 0; i < 50000; i++ {
		p := lix.Point{clamp(r.Float64() * (1 << 20)), clamp(r.Float64() * (1 << 20))}
		check(lisaIx.Insert(p, lix.Value(n+i)))
	}
	fmt.Println("  LISA now holds", lisaIx.Len(), "points")
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

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
