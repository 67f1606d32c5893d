package lix

import (
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/registry"
)

func sortedRecs(t *testing.T, n int, seed int64) []KV {
	t.Helper()
	keys, err := dataset.Keys(dataset.Clustered, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.KV(keys)
}

func TestAllStatic1DKindsAgree(t *testing.T) {
	recs := sortedRecs(t, 8000, 42)
	probes, _ := dataset.Keys(dataset.Uniform, 2000, 43)
	ref := NewSortedArray(recs)
	for _, kind := range Static1DKinds() {
		ix, err := Build1D(kind, recs)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ix.Len() != len(recs) {
			t.Fatalf("%s: len = %d", kind, ix.Len())
		}
		// Hits.
		for i := 0; i < len(recs); i += 13 {
			v, ok := ix.Get(recs[i].Key)
			if !ok || v != recs[i].Value {
				t.Fatalf("%s: Get(%d) = %d,%v", kind, recs[i].Key, v, ok)
			}
		}
		// Probes (mostly misses) agree with the reference.
		for _, p := range probes {
			v1, ok1 := ix.Get(p)
			v2, ok2 := ref.Get(p)
			if ok1 != ok2 || (ok1 && v1 != v2) {
				t.Fatalf("%s: probe %d disagrees with reference", kind, p)
			}
		}
		// Range agreement.
		for _, q := range dataset.Ranges(keysOf(recs), 10, 0.01, 44) {
			n1 := ix.Range(q.Lo, q.Hi, func(Key, Value) bool { return true })
			n2 := ref.Range(q.Lo, q.Hi, func(Key, Value) bool { return true })
			if n1 != n2 {
				t.Fatalf("%s: Range = %d, ref %d", kind, n1, n2)
			}
		}
		if st := ix.Stats(); st.Count != len(recs) {
			t.Fatalf("%s: stats count %d", kind, st.Count)
		}
	}
}

func keysOf(recs []KV) []Key {
	out := make([]Key, len(recs))
	for i := range recs {
		out[i] = recs[i].Key
	}
	return out
}

func TestAllMutable1DKindsAgree(t *testing.T) {
	for _, kind := range Mutable1DKinds() {
		ix, err := BuildMutable1D(kind)
		if err != nil {
			t.Fatal(err)
		}
		const n = 3000
		for i := 0; i < n; i++ {
			ix.Insert(Key(i*7), Value(i))
		}
		if ix.Len() != n {
			t.Fatalf("%s: len = %d", kind, ix.Len())
		}
		for i := 0; i < n; i += 3 {
			if v, ok := ix.Get(Key(i * 7)); !ok || v != Value(i) {
				t.Fatalf("%s: Get(%d) failed", kind, i*7)
			}
		}
		for i := 0; i < n; i += 2 {
			if !ix.Delete(Key(i * 7)) {
				t.Fatalf("%s: Delete(%d) missed", kind, i*7)
			}
		}
		if ix.Len() != n/2 {
			t.Fatalf("%s: len after deletes = %d", kind, ix.Len())
		}
		count := ix.Range(0, ^Key(0), func(Key, Value) bool { return true })
		if count != n/2 {
			t.Fatalf("%s: range count = %d", kind, count)
		}
	}
	if _, err := BuildMutable1D("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Build1D("nope", nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestHybridRMIAndXIndexFacade(t *testing.T) {
	recs := sortedRecs(t, 5000, 45)
	h, err := NewHybridRMI(recs, RMIConfig{Stage2: 64}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := h.Get(recs[7].Key); !ok || v != recs[7].Value {
		t.Fatal("hybrid get")
	}
	if n := h.Range(recs[0].Key, recs[99].Key, func(Key, Value) bool { return true }); n != 100 {
		t.Fatalf("hybrid range = %d", n)
	}
	x, err := BulkXIndex(recs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := x.Get(recs[3].Key); !ok || v != recs[3].Value {
		t.Fatal("xindex get")
	}
}

// TestAllSpatialKindsAgree runs every KNN kind in 2-D, and the kinds that
// take any dimensionality in 3-D too.
func TestAllSpatialKindsAgree(t *testing.T) {
	for _, dim := range []int{2, 3} {
		pts, _ := dataset.Points(dataset.SOSMLike, 4000, dim, 46)
		pvs := dataset.PV(pts)
		queries := dataset.RectQueries(pts, 15, 0.01, 47)
		for _, kind := range SpatialKinds() {
			if k, _ := registry.Lookup(kind); k.Caps.Dims != 0 && k.Caps.Dims != dim {
				continue
			}
			ix, err := BuildSpatial(kind, pvs)
			if err != nil {
				t.Fatalf("%s d=%d: %v", kind, dim, err)
			}
			if ix.Len() != len(pvs) {
				t.Fatalf("%s d=%d: len = %d", kind, dim, ix.Len())
			}
			for qi, q := range queries {
				want := 0
				for _, pv := range pvs {
					if q.Contains(pv.Point) {
						want++
					}
				}
				got, _ := ix.Search(q, func(PV) bool { return true })
				if got != want {
					t.Fatalf("%s d=%d q%d: got %d, want %d", kind, dim, qi, got, want)
				}
			}
			// Point lookups.
			for i := 0; i < len(pvs); i += 97 {
				if _, ok := ix.Lookup(pvs[i].Point); !ok {
					t.Fatalf("%s d=%d: lookup miss", kind, dim)
				}
			}
			if got := ix.(KNNIndex).KNN(pvs[0].Point, 5); len(got) != 5 {
				t.Fatalf("%s d=%d: knn len %d", kind, dim, len(got))
			}
		}
	}
	pvs := dataset.PV([]core.Point{{1, 2}})
	for _, kind := range []string{"nope", "btree"} {
		if _, err := BuildSpatial(kind, pvs); err == nil {
			t.Fatalf("BuildSpatial(%q) accepted", kind)
		}
	}
	if _, err := BuildSpatial("quadtree", dataset.PV([]core.Point{{1, 2, 3}})); err == nil {
		t.Fatal("3-D quadtree accepted")
	}
}

// TestBuildSpatialRTreeIsSTR pins BuildSpatial("rtree") to the STR-packed
// tree, not the insert-built one the kind's empty constructor gives.
func TestBuildSpatialRTreeIsSTR(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 4000, 2, 53)
	pvs := dataset.PV(pts)
	got, err := BuildSpatial("rtree", pvs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BulkRTree(0, pvs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("BuildSpatial(rtree) stats %+v, BulkRTree %+v", got.Stats(), want.Stats())
	}
}

func TestQdTreeAndFloodFacade(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 3000, 2, 48)
	pvs := dataset.PV(pts)
	queries := dataset.RectQueries(pts, 20, 0.01, 49)
	qd, err := NewQdTree(pvs, queries, QdTreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFlood(pvs, FloodConfig{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	if cols, sortDim := fl.Layout(); cols[sortDim] != 1 {
		t.Fatalf("flood layout %v sorts by dim %d, which has more than one column", cols, sortDim)
	}
	for _, q := range queries[:5] {
		want := 0
		for _, pv := range pvs {
			if q.Contains(pv.Point) {
				want++
			}
		}
		if got, _ := qd.Search(q, func(PV) bool { return true }); got != want {
			t.Fatalf("qdtree: got %d want %d", got, want)
		}
		if got, _ := fl.Search(q, func(PV) bool { return true }); got != want {
			t.Fatalf("flood: got %d want %d", got, want)
		}
	}
}

func TestLearnedRTreeFacade(t *testing.T) {
	pts, _ := dataset.Points(dataset.SUniform, 3000, 2, 50)
	pvs := dataset.PV(pts)
	lr, err := NewLearnedRTree(0, 0, pvs)
	if err != nil {
		t.Fatal(err)
	}
	found, _ := lr.PointSearch(pvs[0].Point, func(PV) bool { return true })
	if found < 1 {
		t.Fatal("learned rtree point search")
	}
}

func TestFiltersFacade(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Sequential, 4000, 51)
	negs, _ := dataset.Keys(dataset.Uniform, 4000, 52)
	present := map[core.Key]bool{}
	for _, k := range keys {
		present[k] = true
	}
	var trainNegs []Key
	for _, k := range negs {
		if !present[k] {
			trainNegs = append(trainNegs, k)
		}
	}
	bits := uint64(10 * len(keys))
	std := NewBloomFilterBits(bits, len(keys))
	for _, k := range keys {
		std.Add(k)
	}
	learned, err := TrainLearnedBF(keys, trainNegs, bits)
	if err != nil {
		t.Fatal(err)
	}
	sand, err := TrainSandwichedBF(keys, trainNegs, bits)
	if err != nil {
		t.Fatal(err)
	}
	part, err := TrainPartitionedBF(keys, trainNegs, bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []MembershipFilter{std, learned, sand, part} {
		for _, k := range keys {
			if !f.Contains(k) {
				t.Fatalf("%T: false negative", f)
			}
		}
		if fpr := MeasureFPR(f, trainNegs); fpr < 0 || fpr > 1 {
			t.Fatalf("FPR out of range: %g", fpr)
		}
	}
}

func TestNewRectFacade(t *testing.T) {
	if _, err := NewRect(Point{1}, Point{0}); err == nil {
		t.Fatal("bad rect accepted")
	}
	r, err := NewRect(Point{0, 0}, Point{1, 1})
	if err != nil || r.Dim() != 2 {
		t.Fatal("rect facade broken")
	}
}
