package mlindex

import (
	"math"
	"math/rand"
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
		if ix.Len() != 4000 || len(ix.refs) != 8 {
			t.Fatalf("%s: len=%d refs=%d", kind, ix.Len(), len(ix.refs))
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
	for _, dim := range []int{2, 3, 5} {
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
	for _, dim := range []int{2, 3} {
		pts, _ := dataset.Points(dataset.SSkewed, 3000, dim, 1104)
		pvs := dataset.PV(pts)
		ix, _ := Build(pvs, Config{Refs: 16})
		far := make(core.Point, dim)
		for j := range far {
			far[j] = -3 * dataset.Extent
		}
		queries := append(dataset.KNNQueries(pts, 15, 1105), far)
		for _, k := range []int{1, 10, 100} {
			for qi, q := range queries {
				ds := make([]float64, len(pvs))
				for i, pv := range pvs {
					ds[i] = q.DistSq(pv.Point)
				}
				sort.Float64s(ds)
				got := ix.KNN(q, k)
				if len(got) != k {
					t.Fatalf("dim=%d q%d k=%d: len %d", dim, qi, k, len(got))
				}
				for i, pv := range got {
					if d := q.DistSq(pv.Point); d != ds[i] {
						t.Fatalf("dim=%d q%d k=%d i=%d: %g want %g", dim, qi, k, i, d, ds[i])
					}
				}
			}
		}
		if got := ix.KNN(make(core.Point, dim), 9999); len(got) != 3000 {
			t.Fatalf("dim=%d: kNN beyond size = %d", dim, len(got))
		}
	}
}

// TestSectorTestIsConservative checks the box–pyramid test never rejects
// the sector of a point the box holds, nor bounds the point's distance to
// the reference by a band that misses it, on random points and boxes and on
// the cases where a float comparison decides: a point on a box face, at the
// reference itself, and on a pyramid's diagonal (a tie between two axes).
func TestSectorTestIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(1108))
	for _, dim := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 20000; trial++ {
			ref, p := make(core.Point, dim), make(core.Point, dim)
			box := core.Rect{Min: make(core.Point, dim), Max: make(core.Point, dim)}
			for j := range ref {
				ref[j] = rng.Float64()*200 - 100
				p[j] = ref[j] + rng.NormFloat64()*30
			}
			switch trial % 4 {
			case 1:
				copy(p, ref)
			case 2:
				// On the diagonal of axes a and b: equal |offset| along both.
				a, b := rng.Intn(dim), rng.Intn(dim)
				o := rng.NormFloat64() * 30
				p[a], p[b] = ref[a]+o, ref[b]-o
			}
			for j := range p {
				box.Min[j] = p[j] - rng.ExpFloat64()*20
				box.Max[j] = p[j] + rng.ExpFloat64()*20
				switch rng.Intn(4) {
				case 0:
					box.Min[j] = p[j]
				case 1:
					box.Max[j] = p[j]
				}
			}
			s := sector(p, ref)
			dLo, dHi, ok := boxMeetsSector(box, ref, s)
			if !box.Contains(p) || !ok {
				t.Fatalf("dim=%d: box %v holds %v, sector %d around %v rejected", dim, box, p, s, ref)
			}
			// The band's sums of squares add in another order than Dist's.
			if d := p.Dist(ref); d < dLo*(1-1e-12) || d > dHi*(1+1e-12) {
				t.Fatalf("dim=%d: %v lies %g from %v, outside sector %d's band [%g, %g] in box %v", dim, p, d, ref, s, dLo, dHi, box)
			}
		}
	}
}

// maxDistToRect returns the maximum distance from p to any corner of rect:
// the outer edge of the band an ML-Index without sectors scans.
func maxDistToRect(p core.Point, rect core.Rect) float64 {
	var s float64
	for d := range p {
		a := math.Abs(p[d] - rect.Min[d])
		if b := math.Abs(p[d] - rect.Max[d]); b > a {
			a = b
		}
		s += a * a
	}
	return math.Sqrt(s)
}

// TestSectorsCutCandidates counts, over held-out rectangles at three
// selectivities, the candidates Search scans with the sector test against
// those it would scan over all of each reference's sectors, which is the
// single annulus per reference an ML-Index without sectors scans. The
// sectors must cut them to at most 0.6×.
func TestSectorsCutCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds over 200 000 points")
	}
	pts, _ := dataset.Points(dataset.SOSMLike, 200_000, 2, 1109)
	ix, err := Build(dataset.PV(pts), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sectors := 2 * ix.Dim
	for i, sel := range []float64{1e-5, 1e-4, 1e-3} {
		var withSectors, allSectors int
		for _, q := range dataset.RectQueries(pts, 300, sel, 1110+int64(i)) {
			_, n := ix.Search(q, func(core.PV) bool { return true })
			withSectors += n
			for r, ref := range ix.refs {
				dLo, dHi := math.Sqrt(q.MinDistSq(ref)), maxDistToRect(ref, q)
				for sub := r * sectors; sub < (r+1)*sectors; sub++ {
					if dLo <= ix.maxDist[sub] {
						lo, hi := ix.Interval(ix.band(sub, dLo, min(dHi, ix.maxDist[sub])))
						allSectors += hi - lo
					}
				}
			}
		}
		ratio := float64(withSectors) / float64(allSectors)
		t.Logf("sel %g: %d candidates with sectors, %d over all sectors (%.3f)", sel, withSectors, allSectors, ratio)
		if ratio > 0.6 {
			t.Errorf("sel %g: sectors scan %.3f of the single-annulus candidates, want <= 0.6", sel, ratio)
		}
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
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Pts.PV(i).Value != b.Pts.PV(i).Value {
			t.Fatalf("position %d: key %d value %d then key %d value %d",
				i, a.Keys[i], a.Pts.PV(i).Value, b.Keys[i], b.Pts.PV(i).Value)
		}
	}
	for i, pv := range pvs {
		if v, ok := a.Lookup(pv.Point); !ok || !pvs[v].Point.Equal(pv.Point) {
			t.Fatalf("Lookup of point %d: value %d, found %v", i, v, ok)
		}
	}
}

// bruteNearest is the assignment's definition: the reference at least
// squared distance from p, the lowest-numbered one on a tie, reference 0 at
// +Inf when no distance is below +Inf.
func bruteNearest(refs []core.Point, p core.Point) (best int, d2 float64) {
	d2 = math.Inf(1)
	for r, ref := range refs {
		if d := p.DistSq(ref); d < d2 {
			best, d2 = r, d
		}
	}
	return best, d2
}

// TestNearestMatchesBrute holds the x-ordered, early-exit assignment, and
// the scan a set falls back to, to a scan of every reference in reference
// order, at d = 2, 3 and 5, on lattice points and references where exact
// distance ties, equal coordinate-0 values and duplicate references are
// common, and on random ones with infinities and NaNs among them.
func TestNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1109))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	coord := func(lattice bool) float64 {
		switch {
		case lattice:
			return float64(rng.Intn(7))
		case rng.Intn(50) == 0:
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * 10
	}
	for _, dim := range []int{2, 3, 5} {
		for _, lattice := range []bool{true, false} {
			for trial := 0; trial < 200; trial++ {
				refs := make([]core.Point, 1+rng.Intn(40))
				for r := range refs {
					refs[r] = make(core.Point, dim)
					for j := range refs[r] {
						refs[r][j] = coord(lattice)
					}
				}
				walk, scan := newRefSet(refs, false), newRefSet(refs, true)
				p := make(core.Point, dim)
				for q := 0; q < 50; q++ {
					for j := range p {
						p[j] = coord(lattice)
					}
					wantR, wantD := bruteNearest(refs, p)
					for _, set := range []refSet{walk, scan} {
						r, d, _ := set.nearest(p)
						if r != wantR || math.Float64bits(d) != math.Float64bits(wantD) {
							t.Fatalf("d=%d lattice=%v scan=%v: nearest of %v among %v is %d at %g, want %d at %g", dim, lattice, set.scan, p, refs, r, d, wantR, wantD)
						}
					}
				}
			}
		}
	}
}

// TestNearestMeasuresFewReferences counts the reference distances the
// assignment measures per point over OSM-like points at the 61 references
// the default gives 500 k points, against a ceiling of about twice what it
// reads (3.2 in 2-D, 4.2 in 3-D). A scan of every reference measures 61.
func TestNearestMeasuresFewReferences(t *testing.T) {
	for _, c := range []struct {
		dim     int
		ceiling float64
	}{{2, 6}, {3, 8}} {
		pts, _ := dataset.Points(dataset.SOSMLike, 50000, c.dim, 1110)
		m, err := Build(dataset.PV(pts), Config{Refs: 61})
		if err != nil {
			t.Fatal(err)
		}
		evals := 0
		for _, p := range pts {
			_, _, e := m.near.nearest(p)
			evals += e
		}
		perPoint := float64(evals) / float64(len(pts))
		t.Logf("d=%d: %.2f of %d references measured per point", c.dim, perPoint, len(m.refs))
		if perPoint > c.ceiling {
			t.Fatalf("d=%d: %.2f reference distances per point, ceiling %g", c.dim, perPoint, c.ceiling)
		}
	}
}

// TestBuildChoosesWalkOrScan checks the choice kmeans makes from what its
// rounds measure: the walk on OSM-like points, where it measures a few
// references a point, and the scan on uniform points at d = 5 with 16
// references, where the walk measures about 10 of the 16 and costs more.
func TestBuildChoosesWalkOrScan(t *testing.T) {
	for _, c := range []struct {
		kind      dataset.SpatialKind
		dim, refs int
		scan      bool
	}{{dataset.SOSMLike, 2, 61, false}, {dataset.SOSMLike, 5, 16, false}, {dataset.SUniform, 2, 16, false}, {dataset.SUniform, 5, 16, true}} {
		pts, _ := dataset.Points(c.kind, 20000, c.dim, 1111)
		m, err := Build(dataset.PV(pts), Config{Refs: c.refs})
		if err != nil {
			t.Fatal(err)
		}
		if m.near.scan != c.scan {
			t.Errorf("%s d=%d, %d references: scan %v, want %v", c.kind, c.dim, c.refs, m.near.scan, c.scan)
		}
	}
}
