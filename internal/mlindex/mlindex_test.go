package mlindex

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
		pts, _ := dataset.Points(kind, 4000, 2, 1101)
		pvs := dataset.PV(pts)
		ix, err := Build(pvs, Config{Refs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != 4000 || len(ix.Refs()) != 8 {
			t.Fatalf("%s: len=%d refs=%d", kind, ix.Len(), len(ix.Refs()))
		}
		for i, pv := range pvs {
			v, ok := ix.Lookup(pv.Point)
			if !ok {
				t.Fatalf("%s: Lookup miss at %d", kind, i)
			}
			if !pvs[v].Point.Equal(pv.Point) {
				t.Fatalf("%s: Lookup wrong value", kind)
			}
		}
		if _, ok := ix.Lookup(core.Point{-1e9, -1e9}); ok {
			t.Fatalf("%s: phantom", kind)
		}
	}
}

func TestSearchMatchesBrute(t *testing.T) {
	for _, dim := range []int{2, 3} {
		pts, _ := dataset.Points(dataset.SOSMLike, 5000, dim, 1102)
		pvs := dataset.PV(pts)
		ix, err := Build(pvs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range dataset.RectQueries(pts, 25, 0.01, 1103) {
			want := bruteCount(pvs, q)
			got, scanned := ix.Search(q, func(core.PV) bool { return true })
			if got != want {
				t.Fatalf("dim=%d q%d: got %d, want %d", dim, qi, got, want)
			}
			if scanned < got {
				t.Fatal("scanned < visited")
			}
		}
	}
}

func TestKNNMatchesBrute(t *testing.T) {
	pts, _ := dataset.Points(dataset.SSkewed, 3000, 2, 1104)
	pvs := dataset.PV(pts)
	ix, _ := Build(pvs, Config{Refs: 16})
	for _, k := range []int{1, 10, 100} {
		for qi, q := range dataset.KNNQueries(pts, 15, 1105) {
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
	if got := ix.KNN(core.Point{0, 0}, 9999); len(got) != 3000 {
		t.Fatalf("kNN beyond size = %d", len(got))
	}
}

func TestErrorsAndDegenerate(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := Build([]core.PV{{Point: core.Point{1}}, {Point: core.Point{1, 2}}}, Config{}); err == nil {
		t.Fatal("mixed dims accepted")
	}
	// Fewer points than requested refs.
	ix, err := Build([]core.PV{{Point: core.Point{1, 1}, Value: 7}}, Config{Refs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ix.Lookup(core.Point{1, 1}); !ok || v != 7 {
		t.Fatal("single point lookup")
	}
	got := ix.KNN(core.Point{0, 0}, 3)
	if len(got) != 1 {
		t.Fatalf("knn on single = %d", len(got))
	}
}

func TestStats(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 3000, 2, 1106)
	ix, _ := Build(dataset.PV(pts), Config{})
	st := ix.Stats()
	if st.Count != 3000 || st.IndexBytes <= 0 || st.Models < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEarlyStop(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 1000, 2, 1107)
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
// KNN([500,500], 1)). The expanding-annulus search capped its radius at a
// multiple of the largest partition radius, so with a degenerate extent
// (a single distinct location, all partition radii 0) — or a query far
// outside the extent — the annuli never reached the data and KNN returned
// no results.
func TestKNNDegenerateExtent(t *testing.T) {
	single := []core.PV{{Point: core.Point{100, 100}, Value: 1}}
	ix, err := Build(single, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.KNN(core.Point{500, 500}, 1)
	if len(got) != 1 || got[0].Value != 1 {
		t.Fatalf("KNN over single point = %v, want that point", got)
	}

	equal := make([]core.PV, 200)
	for i := range equal {
		equal[i] = core.PV{Point: core.Point{512, 512}, Value: core.Value(i)}
	}
	ix, err = Build(equal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.KNN(core.Point{500, 500}, 3); len(got) != 3 {
		t.Fatalf("KNN over equal points returned %d results, want 3", len(got))
	}
}

// TestBuildDeterministic builds twice over an input larger than the Lloyd
// sample: the references, and so the projected keys and the stored order,
// must depend on the input alone, and sampling must not cost a lookup.
func TestBuildDeterministic(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, kmeansSample+7000, 2, 1107)
	pvs := dataset.PV(pts)
	a, err := Build(pvs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(pvs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.refs {
		if !a.refs[r].Equal(b.refs[r]) {
			t.Fatalf("reference %d: %v then %v", r, a.refs[r], b.refs[r])
		}
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || a.pts.PV(i).Value != b.pts.PV(i).Value {
			t.Fatalf("position %d: key %d value %d then key %d value %d",
				i, a.keys[i], a.pts.PV(i).Value, b.keys[i], b.pts.PV(i).Value)
		}
	}
	for i, pv := range pvs {
		if v, ok := a.Lookup(pv.Point); !ok || !pvs[v].Point.Equal(pv.Point) {
			t.Fatalf("Lookup of point %d: value %d, found %v", i, v, ok)
		}
	}
}
