package zm

import (
	"sort"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

func bruteCount(pvs []core.PV, rect core.Rect) int {
	n := 0
	for _, pv := range pvs {
		if rect.Contains(pv.Point) {
			n++
		}
	}
	return n
}

func TestBuildAndLookup(t *testing.T) {
	for _, kind := range dataset.SpatialKinds() {
		for _, curve := range []CurveKind{CurveZ, CurveHilbert} {
			pts, _ := dataset.Points(kind, 4000, 2, 1001)
			pvs := dataset.PV(pts)
			ix, err := Build(pvs, Config{Curve: curve})
			if err != nil {
				t.Fatal(err)
			}
			if ix.Len() != 4000 {
				t.Fatalf("%s/%s: len = %d", kind, curve, ix.Len())
			}
			for i, pv := range pvs {
				v, ok := ix.Lookup(pv.Point)
				if !ok {
					t.Fatalf("%s/%s: Lookup miss at %d", kind, curve, i)
				}
				// Duplicate coordinates may legitimately return another
				// point's value; verify the value belongs to an equal point.
				if !pvs[v].Point.Equal(pv.Point) {
					t.Fatalf("%s/%s: Lookup wrong value", kind, curve)
				}
			}
			if _, ok := ix.Lookup(core.Point{-1, -1}); ok {
				t.Fatalf("%s/%s: phantom lookup", kind, curve)
			}
		}
	}
}

func TestSearchMatchesBrute(t *testing.T) {
	for _, dimCase := range []struct {
		dim   int
		curve CurveKind
	}{{2, CurveZ}, {2, CurveHilbert}, {3, CurveZ}} {
		pts, _ := dataset.Points(dataset.SOSMLike, 5000, dimCase.dim, 1002)
		pvs := dataset.PV(pts)
		ix, err := Build(pvs, Config{Curve: dimCase.curve})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range dataset.RectQueries(pts, 30, 0.01, 1003) {
			want := bruteCount(pvs, q)
			got, cands := ix.Search(q, func(core.PV) bool { return true })
			if got != want {
				t.Fatalf("dim=%d curve=%s q%d: got %d, want %d", dimCase.dim, dimCase.curve, qi, got, want)
			}
			if cands < got {
				t.Fatalf("dim=%d curve=%s q%d: %d candidates scanned for %d results", dimCase.dim, dimCase.curve, qi, cands, got)
			}
		}
	}
}

func TestKNNMatchesBrute(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 3000, 2, 1004)
	pvs := dataset.PV(pts)
	ix, _ := Build(pvs, Config{})
	for _, k := range []int{1, 10, 100} {
		for qi, q := range dataset.KNNQueries(pts, 15, 1005) {
			ds := make([]float64, len(pvs))
			for i, pv := range pvs {
				ds[i] = q.DistSq(pv.Point)
			}
			sort.Float64s(ds)
			got := ix.KNN(q, k)
			if len(got) != k {
				t.Fatalf("q%d k=%d: len %d", qi, k, len(got))
			}
			for i, pv := range got {
				if d := q.DistSq(pv.Point); d != ds[i] {
					t.Fatalf("q%d k=%d i=%d: %g want %g", qi, k, i, d, ds[i])
				}
			}
		}
	}
	if got := ix.KNN(core.Point{0, 0}, 5000); len(got) != 3000 {
		t.Fatalf("kNN beyond size = %d", len(got))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("empty accepted")
	}
	pts3, _ := dataset.Points(dataset.SUniform, 10, 3, 1)
	if _, err := Build(dataset.PV(pts3), Config{Curve: CurveHilbert}); err == nil {
		t.Fatal("3-D hilbert accepted")
	}
	if _, err := Build([]core.PV{{Point: core.Point{1}}, {Point: core.Point{1, 2}}}, Config{}); err == nil {
		t.Fatal("mixed dims accepted")
	}
	if _, err := Build(dataset.PV(pts3), Config{Curve: "bogus"}); err == nil {
		t.Fatal("bogus curve accepted")
	}
	if _, err := Build(dataset.PV(pts3), Config{Bits: 11}); err == nil {
		t.Fatal("33-bit 3-D codes accepted")
	}
	if _, err := Build(dataset.PV(pts3), Config{Bits: 10}); err != nil {
		t.Fatalf("30-bit 3-D codes: %v", err)
	}
}

func TestDegenerateSinglePoint(t *testing.T) {
	ix, err := Build([]core.PV{{Point: core.Point{5, 5}, Value: 9}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ix.Lookup(core.Point{5, 5}); !ok || v != 9 {
		t.Fatal("single point lookup")
	}
	rect, _ := core.NewRect(core.Point{0, 0}, core.Point{10, 10})
	n, _ := ix.Search(rect, func(core.PV) bool { return true })
	if n != 1 {
		t.Fatalf("single point search = %d", n)
	}
}

func TestStatsAndBudget(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 5000, 2, 1006)
	ix, _ := Build(dataset.PV(pts), Config{MaxRanges: 4})
	st := ix.Stats()
	if st.Count != 5000 || st.IndexBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Tiny interval budget must still be correct (more scanning).
	pvs := dataset.PV(pts)
	s := (ix.cfg.Bits - ix.level) * 2
	for _, q := range dataset.RectQueries(pts, 10, 0.01, 1007) {
		want := bruteCount(pvs, q)
		if got, _ := ix.Search(q, func(core.PV) bool { return true }); got != want {
			t.Fatalf("budget search: got %d want %d", got, want)
		}
		if ivs := ix.morton.Ranges(nil, uint64(ix.code(q.Min)>>s), uint64(ix.code(q.Max)>>s), ix.cfg.MaxRanges); len(ivs) > 4 {
			t.Fatalf("interval budget exceeded: %d", len(ivs))
		}
	}
}

func TestEarlyStop(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 1000, 2, 1008)
	ix, _ := Build(dataset.PV(pts), Config{})
	all, _ := core.NewRect(core.Point{0, 0}, core.Point{dataset.Extent, dataset.Extent})
	count := 0
	ix.Search(all, func(core.PV) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop = %d", count)
	}
}

// TestKNNDegenerateExtent is a regression test for a bug found by the
// conform differential suite (shrunk repro: one point at [100,100], query
// KNN([500,500], 1)). KNN capped its window expansion at a multiple of the
// data extent's span, so with a degenerate extent (a single distinct
// location, span 0) — or a query far outside the extent — the window never
// reached the data and KNN returned no results.
func TestKNNDegenerateExtent(t *testing.T) {
	for _, curve := range []CurveKind{CurveZ, CurveHilbert} {
		single := []core.PV{{Point: core.Point{100, 100}, Value: 1}}
		ix, err := Build(single, Config{Curve: curve})
		if err != nil {
			t.Fatalf("%s: %v", curve, err)
		}
		got := ix.KNN(core.Point{500, 500}, 1)
		if len(got) != 1 || got[0].Value != 1 {
			t.Fatalf("%s: KNN over single point = %v, want that point", curve, got)
		}

		equal := make([]core.PV, 200)
		for i := range equal {
			equal[i] = core.PV{Point: core.Point{512, 512}, Value: core.Value(i)}
		}
		ix, err = Build(equal, Config{Curve: curve})
		if err != nil {
			t.Fatalf("%s: %v", curve, err)
		}
		if got := ix.KNN(core.Point{500, 500}, 3); len(got) != 3 {
			t.Fatalf("%s: KNN over equal points returned %d results, want 3", curve, len(got))
		}
	}
}

// TestHilbertSearchAllocatesNoMoreThanZ holds the Hilbert curve's rectangle
// search to the Z-curve's allocations over the same rectangles: both
// decompose into a buffer on the search's stack, and neither grows one on
// the heap at its default budget.
func TestHilbertSearchAllocatesNoMoreThanZ(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 20000, 2, 1011)
	pvs := dataset.PV(pts)
	var rects []core.Rect
	for _, sel := range []float64{1e-4, 1e-3, 1e-2} {
		rects = append(rects, dataset.RectQueries(pts, 100, sel, 1012)...)
	}
	var sum core.Value
	add := func(pv core.PV) bool { sum += pv.Value; return true }
	allocs := map[CurveKind]float64{}
	for _, curve := range []CurveKind{CurveZ, CurveHilbert} {
		ix, err := Build(pvs, Config{Curve: curve})
		if err != nil {
			t.Fatal(err)
		}
		allocs[curve] = testing.AllocsPerRun(5, func() {
			for _, q := range rects {
				ix.Search(q, add)
			}
		})
	}
	if allocs[CurveHilbert] > allocs[CurveZ] {
		t.Fatalf("%v allocations over %d Hilbert searches, %v over the same Z-curve ones",
			allocs[CurveHilbert], len(rects), allocs[CurveZ])
	}
	if sum == 0 {
		t.Fatal("the searches found nothing")
	}
}
