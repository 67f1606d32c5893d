package lisa

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

func TestSearchMatchesBrute(t *testing.T) {
	for _, kind := range dataset.SpatialKinds() {
		for _, dim := range []int{2, 3} {
			pts, _ := dataset.Points(kind, 5000, dim, 1301)
			pvs := dataset.PV(pts)
			ix, err := Build(pvs, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range dataset.RectQueries(pts, 25, 0.01, 1302) {
				want := bruteCount(pvs, q)
				got, scanned := ix.Search(q, func(core.PV) bool { return true })
				if got != want {
					t.Fatalf("%s dim=%d q%d: got %d, want %d", kind, dim, qi, got, want)
				}
				if scanned < got {
					t.Fatal("scanned < visited")
				}
			}
		}
	}
}

func TestLookup(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 4000, 2, 1303)
	pvs := dataset.PV(pts)
	ix, _ := Build(pvs, Config{})
	for i, pv := range pvs {
		v, ok := ix.Lookup(pv.Point)
		if !ok {
			t.Fatalf("Lookup miss at %d", i)
		}
		if !pvs[v].Point.Equal(pv.Point) {
			t.Fatal("Lookup wrong value")
		}
	}
	if _, ok := ix.Lookup(core.Point{-1, -1}); ok {
		t.Fatal("phantom")
	}
}

func TestInsertAndSplit(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 2000, 2, 1304)
	pvs := dataset.PV(pts)
	ix, _ := Build(pvs, Config{ShardSize: 256, DeltaCap: 32})
	before := len(ix.shards)
	extra, _ := dataset.Points(dataset.SUniform, 6000, 2, 1305)
	for i, p := range extra {
		if err := ix.Insert(p, core.Value(100000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 8000 {
		t.Fatalf("len = %d", ix.Len())
	}
	if ix.Splits == 0 || len(ix.shards) <= before {
		t.Fatalf("expected shard splits (splits=%d shards %d->%d)", ix.Splits, before, len(ix.shards))
	}
	// All inserted points findable.
	for i, p := range extra {
		v, ok := ix.Lookup(p)
		if !ok {
			t.Fatalf("inserted point %d lost", i)
		}
		_ = v
	}
	// Range still exact.
	all := append(append([]core.PV(nil), pvs...), dataset.PV(extra)...)
	for qi, q := range dataset.RectQueries(pts, 15, 0.01, 1306) {
		want := 0
		for _, pv := range all {
			if q.Contains(pv.Point) {
				want++
			}
		}
		got, _ := ix.Search(q, func(core.PV) bool { return true })
		if got != want {
			t.Fatalf("q%d after inserts: got %d, want %d", qi, got, want)
		}
	}
}

func TestDelete(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 3000, 2, 1307)
	pvs := dataset.PV(pts)
	ix, _ := Build(pvs, Config{ShardSize: 512})
	for i := 0; i < len(pvs); i += 2 {
		if !ix.Delete(pvs[i].Point, pvs[i].Value) {
			t.Fatalf("Delete %d missed", i)
		}
	}
	if ix.Delete(pvs[0].Point, pvs[0].Value) {
		t.Fatal("double delete")
	}
	if ix.Len() != 1500 {
		t.Fatalf("len = %d", ix.Len())
	}
	for i, pv := range pvs {
		_, ok := ix.Lookup(pv.Point)
		want := i%2 == 1
		// Duplicate coordinates can make a deleted point still "found" via
		// its twin; only check the definite cases.
		if want && !ok {
			t.Fatalf("surviving point %d lost", i)
		}
	}
}

func TestKNNMatchesBrute(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 3000, 2, 1308)
	pvs := dataset.PV(pts)
	ix, _ := Build(pvs, Config{})
	for _, k := range []int{1, 10, 50} {
		for qi, q := range dataset.KNNQueries(pts, 10, 1309) {
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
}

func TestErrorsAndStats(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := Build([]core.PV{{Point: core.Point{1}}, {Point: core.Point{1, 2}}}, Config{}); err == nil {
		t.Fatal("mixed dims accepted")
	}
	pts, _ := dataset.Points(dataset.SUniform, 1000, 2, 1310)
	if _, err := Build(dataset.PV(pts), Config{GridCols: 1 << 17}); err == nil {
		t.Fatal("2^34 cells accepted")
	}
	ix, _ := Build(dataset.PV(pts), Config{})
	if err := ix.Insert(core.Point{1}, 0); err == nil {
		t.Fatal("dim mismatch insert accepted")
	}
	if ix.Delete(core.Point{1}, 0) {
		t.Fatal("dim mismatch delete")
	}
	st := ix.Stats()
	if st.Count != 1000 || st.IndexBytes <= 0 || st.Models < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEarlyStop(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 1000, 2, 1311)
	ix, _ := Build(dataset.PV(pts), Config{})
	all, _ := core.NewRect(core.Point{0, 0}, core.Point{dataset.Extent, dataset.Extent})
	count := 0
	ix.Search(all, func(core.PV) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop = %d", count)
	}
}

func TestDuplicatePoints(t *testing.T) {
	var pvs []core.PV
	for i := 0; i < 500; i++ {
		pvs = append(pvs, core.PV{Point: core.Point{42, 17}, Value: core.Value(i)})
	}
	ix, err := Build(pvs, Config{ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rect, _ := core.NewRect(core.Point{42, 17}, core.Point{42, 17})
	n, _ := ix.Search(rect, func(core.PV) bool { return true })
	if n != 500 {
		t.Fatalf("duplicate search = %d", n)
	}
}

// TestKNNDegenerateExtent is a regression test for a bug found by the
// conform differential suite (shrunk repro: one point at [100,100], query
// KNN([500,500], 1)). KNN capped its window expansion at a multiple of the
// grid's interior span, so with a degenerate extent (a single distinct
// location) — or a query far outside the extent — the window never reached
// the data and KNN returned no results. The window must grow until it
// provably holds every stored point, including ones inserted into the
// grid's unbounded edge cells after the build.
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
	// A later insert far outside the original extent must be reachable.
	if err := ix.Insert(core.Point{9000, 9000}, 999); err != nil {
		t.Fatal(err)
	}
	got = ix.KNN(core.Point{9100, 9100}, 1)
	if len(got) != 1 || got[0].Value != 999 {
		t.Fatalf("KNN near out-of-extent insert = %v, want value 999", got)
	}
}
