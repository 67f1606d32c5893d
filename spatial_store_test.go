package lix

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/flood"
	"github.com/lix-go/lix/internal/lisa"
	"github.com/lix-go/lix/internal/mlindex"
	"github.com/lix-go/lix/internal/rtree"
	"github.com/lix-go/lix/internal/zm"
)

// storeKinds are the kinds that keep their points in the flat point store
// (the R-tree one store per leaf).
var storeKinds = []string{"rtree", "zm", "zm-hilbert", "mlindex", "flood", "lisa"}

// spatialAnswers renders everything ix answers about pts (point i has value
// i), queries and kNN probes as one string, so two states of an index
// compare with ==.
func spatialAnswers(ix SpatialIndex, pts []Point, queries []Rect, probes []Point) string {
	var out []string
	for i, p := range pts {
		// Equal points may answer with each other's values.
		v, ok := ix.Lookup(p)
		out = append(out, fmt.Sprint("L", i, ok && pts[v].Equal(p)))
	}
	for i, q := range queries {
		var vals []uint64
		ix.Search(q, func(pv PV) bool {
			if !q.Contains(pv.Point) {
				vals = append(vals, ^uint64(0)) // a result outside its rectangle
			}
			vals = append(vals, pv.Value)
			return true
		})
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		out = append(out, fmt.Sprint("S", i, vals))
	}
	if knn, ok := ix.(KNNIndex); ok {
		for i, q := range probes {
			var d2 []float64
			for _, pv := range knn.KNN(q, 7) {
				d2 = append(d2, q.DistSq(pv.Point))
			}
			out = append(out, fmt.Sprint("K", i, d2))
		}
	}
	return fmt.Sprint(out)
}

// bruteAnswers is spatialAnswers computed from the points alone; knn says
// whether the kind under test answers kNN.
func bruteAnswers(pts []Point, queries []Rect, probes []Point, knn bool) string {
	var out []string
	for i := range pts {
		out = append(out, fmt.Sprint("L", i, true))
	}
	for i, q := range queries {
		var vals []uint64
		for j, p := range pts {
			if q.Contains(p) {
				vals = append(vals, uint64(j))
			}
		}
		out = append(out, fmt.Sprint("S", i, vals))
	}
	for i, q := range probes {
		if !knn {
			break
		}
		d2 := make([]float64, len(pts))
		for j, p := range pts {
			d2[j] = q.DistSq(p)
		}
		sort.Float64s(d2)
		out = append(out, fmt.Sprint("K", i, d2[:7]))
	}
	return fmt.Sprint(out)
}

func clonePoints(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}

// TestSpatialBuildCopiesCoordinates pins the "copied" in the Build docs of
// the store-backed kinds: after BuildSpatial returns, the caller may do
// anything to the coordinate buffers it passed in. Before the flat store
// these kinds kept slice headers into those buffers, and overwriting one
// moved the indexed point (Lookup of the original missed, Search found the
// record at the new position).
func TestSpatialBuildCopiesCoordinates(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 3000, 2, 1801)
	orig := clonePoints(pts)
	queries := dataset.RectQueries(orig, 20, 0.01, 1802)
	probes := dataset.KNNQueries(orig, 5, 1803)
	for _, kind := range storeKinds {
		input := dataset.PV(clonePoints(orig))
		ix, err := BuildSpatial(kind, input)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		before := spatialAnswers(ix, orig, queries, probes)
		for _, pv := range input {
			for d := range pv.Point {
				pv.Point[d] = -7
			}
		}
		if after := spatialAnswers(ix, orig, queries, probes); after != before {
			t.Errorf("%s: answers changed after the build input was overwritten", kind)
		}
		_, knn := ix.(KNNIndex)
		if want := bruteAnswers(orig, queries, probes, knn); before != want {
			t.Errorf("%s: answers differ from brute force", kind)
		}
	}
}

// TestSearchCallbackCannotClobberNeighbour pins the other half of the
// aliasing contract: the Point a callback receives aliases the store, but
// is capped at its own end, so an append to it reallocates instead of
// writing over the next point's coordinates.
func TestSearchCallbackCannotClobberNeighbour(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 2000, 2, 1804)
	queries := dataset.RectQueries(pts, 20, 0.05, 1805)
	for _, kind := range storeKinds {
		ix, err := BuildSpatial(kind, dataset.PV(pts))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		before := spatialAnswers(ix, pts, queries, nil)
		for _, q := range queries {
			ix.Search(q, func(pv PV) bool {
				_ = append(pv.Point, -7, -7)
				return true
			})
			// A rectangle with its corners swapped holds nothing.
			if n, _ := ix.Search(Rect{Min: q.Max, Max: q.Min}, func(PV) bool { return true }); n != 0 {
				t.Errorf("%s: %d points in an inverted rectangle", kind, n)
			}
		}
		if after := spatialAnswers(ix, pts, queries, nil); after != before {
			t.Errorf("%s: an append to a callback's Point changed the index", kind)
		}
	}
}

// TestStoreKindsHigherDimensions runs the store-backed kinds against brute
// force in 3-D and 4-D, where ScanRect takes its generic-dimension path and
// not the 2-D one every other suite exercises, and the R-tree its generic
// box test. (zm-hilbert is 2-D only; its exactness is the 2-D tests' above.)
func TestStoreKindsHigherDimensions(t *testing.T) {
	for _, dim := range []int{3, 4} {
		for _, shape := range []dataset.SpatialKind{dataset.SUniform, dataset.SOSMLike} {
			pts, _ := dataset.Points(shape, 2500, dim, int64(1806+dim))
			queries := dataset.RectQueries(pts, 20, 0.01, 1807)
			probes := dataset.KNNQueries(pts, 5, 1808)
			for _, kind := range []string{"rtree", "zm", "mlindex", "flood", "lisa"} {
				ix, err := BuildSpatial(kind, dataset.PV(pts))
				if err != nil {
					t.Fatalf("%s %d-D: %v", kind, dim, err)
				}
				if got, want := spatialAnswers(ix, pts, queries, probes), bruteAnswers(pts, queries, probes, true); got != want {
					t.Errorf("%s %d-D %s: answers differ from brute force", kind, dim, shape)
				}
			}
		}
	}
}

// TestStoreKindsDoNotAllocate holds the query paths of the store-backed
// kinds to zero allocations on 2-D data: a point lookup, and a rectangle
// search whose callback does not escape. The calls are made on the concrete
// types because a callback passed through the SpatialIndex interface
// escapes at the call site whatever the index does with it.
func TestStoreKindsDoNotAllocate(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 20000, 2, 1809)
	pvs := dataset.PV(pts)
	p := pts[4321]
	rect := dataset.RectQueries(pts, 1, 0.01, 1810)[0]
	var sum uint64
	add := func(pv PV) bool { sum += pv.Value; return true }

	z, err := zm.Build(pvs, zm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mlindex.Build(pvs, mlindex.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := flood.Build(pvs, flood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := lisa.Build(pvs, lisa.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rtree.BulkSTR(0, pvs)
	if err != nil {
		t.Fatal(err)
	}
	for name, query := range map[string]func(){
		"rtree":   func() { r.Lookup(p); r.Search(rect, add) },
		"zm":      func() { z.Lookup(p); z.Search(rect, add) },
		"mlindex": func() { m.Lookup(p); m.Search(rect, add) },
		"flood":   func() { f.Lookup(p); f.Search(rect, add) },
		"lisa":    func() { l.Lookup(p); l.Search(rect, add) },
	} {
		if allocs := testing.AllocsPerRun(50, query); allocs != 0 {
			t.Errorf("%s: %v allocations per lookup + search, want 0", name, allocs)
		}
	}
	if sum == 0 {
		t.Fatal("the searches found nothing")
	}
}

// TestCheckInvariantsCatchesMovedKey moves, in the projected engine's
// 32-bit column of each projected kind, the last key of one sub-partition
// (the run of keys with equal top bits: an ML-Index reference's sector, a
// curve's top-level cell) to the first key of the next sub-partition,
// keeping the keys in order, and expects the check to name the stored key.
func TestCheckInvariantsCatchesMovedKey(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 4000, 2, 1111)
	for _, kind := range []string{"zm", "zm-hilbert", "mlindex"} {
		t.Run(kind, func(t *testing.T) {
			ix, err := BuildSpatial(kind, dataset.PV(pts))
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckInvariants(ix); err != nil {
				t.Fatal(err)
			}
			var keys []uint32
			var subs int // sub-partitions, which fill a key's top bits
			switch ix := ix.(type) {
			case *zm.Index:
				keys, subs = ix.Keys, 1<<ix.Dim
			case *mlindex.Index:
				keys, subs = ix.Keys, ix.Stats().Models*2*ix.Dim
			default:
				t.Fatalf("%T is not a projected index", ix)
			}
			shift := 32 - bits.Len(uint(subs-1))
			moved := false
			for i := 0; i+1 < len(keys) && !moved; i++ {
				if next := keys[i+1] >> shift; next != keys[i]>>shift {
					keys[i], moved = next<<shift, true
				}
			}
			if !moved {
				t.Fatal("every key is in one sub-partition")
			}
			if err := CheckInvariants(ix); err == nil || !strings.Contains(err.Error(), "stored key") {
				t.Fatalf("a key moved to another run: %v", err)
			}
		})
	}
}

// TestStatsMatchLiveHeap holds what Stats reports, IndexBytes plus
// DataBytes, to within 5 % of the live heap each of the repo benchmark's
// five spatial kinds grows by when it is built, per point, so bytes per
// point read from Stats are the bytes the index keeps.
func TestStatsMatchLiveHeap(t *testing.T) {
	const n = 200_000
	pts, _ := dataset.Points(dataset.SOSMLike, n, 2, 1901)
	pvs := dataset.PV(pts)
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, kind := range []string{"rtree", "zm", "mlindex", "flood", "lisa"} {
		before := liveHeap()
		ix, err := BuildSpatial(kind, pvs)
		if err != nil {
			t.Fatal(err)
		}
		heap := float64(liveHeap()-before) / n
		st := ix.Stats()
		stats := float64(st.IndexBytes+st.DataBytes) / n
		runtime.KeepAlive(ix)
		t.Logf("%s: Stats %.2f B a point, live heap %.2f", kind, stats, heap)
		if stats < 0.95*heap || stats > 1.05*heap {
			t.Errorf("%s: Stats report %.2f B a point, the live heap grew %.2f", kind, stats, heap)
		}
	}
}
