package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func randomPVs(r *rand.Rand, n, dim int) []PV {
	pvs := make([]PV, n)
	for i := range pvs {
		p := make(Point, dim)
		for d := range p {
			p[d] = float64(r.Intn(50)) // coarse, so ties and duplicates occur
		}
		pvs[i] = PV{Point: p, Value: Value(i)}
	}
	return pvs
}

// TestPointStoreScanRectMatchesFilter checks the refine loop, on its 2-D
// fast path and on the generic path, against a plain filter over the same
// positions, including the early stop.
func TestPointStoreScanRectMatchesFilter(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, dim := range []int{1, 2, 3, 5} {
		pvs := randomPVs(r, 400, dim)
		order := make([]int32, len(pvs))
		for i, j := range r.Perm(len(pvs)) {
			order[i] = int32(j)
		}
		s := NewPointStoreFrom(dim, pvs, order)
		if s.Len() != len(pvs) {
			t.Fatalf("dim %d: len %d", dim, s.Len())
		}
		for q := 0; q < 50; q++ {
			rect := Rect{Min: make(Point, dim), Max: make(Point, dim)}
			for d := 0; d < dim; d++ {
				a, b := float64(r.Intn(50)), float64(r.Intn(50))
				rect.Min[d], rect.Max[d] = math.Min(a, b), math.Max(a, b)
			}
			lo := r.Intn(s.Len())
			hi := lo + r.Intn(s.Len()-lo+1)
			var want []Value
			for i := lo; i < hi; i++ {
				if pv := pvs[order[i]]; rect.Contains(pv.Point) {
					want = append(want, pv.Value)
				}
			}
			var got []Value
			n, cont := s.ScanRect(lo, hi, rect, func(pv PV) bool {
				if !pv.Point.Equal(pvs[pv.Value].Point) {
					t.Fatalf("dim %d: value %d handed out with point %v", dim, pv.Value, pv.Point)
				}
				got = append(got, pv.Value)
				return true
			})
			if !cont || n != len(want) || !slices.Equal(got, want) {
				t.Fatalf("dim %d [%d,%d) %v: got %v (n=%d cont=%v), want %v", dim, lo, hi, rect, got, n, cont, want)
			}
			if len(want) > 1 {
				seen := 0
				n, cont := s.ScanRect(lo, hi, rect, func(PV) bool { seen++; return false })
				if cont || n != 1 || seen != 1 {
					t.Fatalf("dim %d: early stop visited %d (n=%d cont=%v)", dim, seen, n, cont)
				}
			}
		}
	}
}

// TestPointStoreEdits drives Insert, Remove, Find and DimBound against a
// []PV model, and checks that At cannot be appended over its neighbour.
func TestPointStoreEdits(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const dim = 3
	s := NewPointStore(dim, 0)
	var model []PV
	for step := 0; step < 2000; step++ {
		if len(model) == 0 || r.Intn(3) > 0 {
			p := randomPVs(r, 1, dim)[0].Point
			// Keep the run sorted by coordinate 1, for DimBound.
			i := sort.Search(len(model), func(i int) bool { return model[i].Point[1] >= p[1] })
			s.Insert(i, p, Value(step))
			model = slices.Insert(model, i, PV{Point: p.Clone(), Value: Value(step)})
			p[0] = -1 // the store holds a copy
		} else {
			i := r.Intn(len(model))
			s.Remove(i)
			model = slices.Delete(model, i, i+1)
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("len %d, model %d", s.Len(), len(model))
	}
	for i, pv := range model {
		if got := s.PV(i); got.Value != pv.Value || !got.Point.Equal(pv.Point) {
			t.Fatalf("record %d = %v, want %v", i, got, pv)
		}
		if j := s.Find(0, s.Len(), pv.Point); j < 0 || !model[j].Point.Equal(pv.Point) || j > i {
			t.Fatalf("Find(%v) = %d, want the first equal point at or before %d", pv.Point, j, i)
		}
	}
	if s.Find(0, s.Len(), Point{-5, -5, -5}) != -1 {
		t.Fatal("Find of an absent point")
	}
	for v := -1.0; v <= 50; v += 0.5 {
		for _, after := range []bool{false, true} {
			want := sort.Search(len(model), func(i int) bool {
				c := model[i].Point[1]
				return c > v || (!after && c == v)
			})
			// Any guess and error bound, right or wrong, give the answer.
			guess, err := r.Intn(s.Len()+20)-10, r.Intn(8)
			if got := s.DimBound(0, s.Len(), 1, v, after, guess, err); got != want {
				t.Fatalf("DimBound(%g, after=%v, guess %d±%d) = %d, want %d", v, after, guess, err, got, want)
			}
		}
	}
	next := s.At(1).Clone()
	_ = append(s.At(0), 99)
	if !s.At(1).Equal(next) {
		t.Fatal("an append to At(0) overwrote point 1")
	}
}

func TestSortKeys(t *testing.T) {
	keys := []uint64{5, 1, 5, 3, 1}
	orig := slices.Clone(keys)
	order := SortKeys(keys)
	if !slices.Equal(keys, []uint64{1, 1, 3, 5, 5}) || !slices.Equal(order, []int32{1, 4, 3, 0, 2}) {
		t.Fatalf("keys %v order %v", keys, order)
	}
	for i, j := range order {
		if keys[i] != orig[j] {
			t.Fatalf("keys[%d] is not the old keys[%d]", i, j)
		}
	}
}

// TestSortKeysRadix holds the radix paths for float64 and uint64 keys to a
// stable comparison sort, over ties, signed zeros, infinities and NaNs.
func TestSortKeysRadix(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1.5, 1.5, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	for _, n := range []int{0, 1, 2, 17, 5000} {
		fs := make([]float64, n)
		us := make([]uint64, n)
		for i := range fs {
			switch r.Intn(3) {
			case 0:
				fs[i] = special[r.Intn(len(special))]
			case 1:
				fs[i] = float64(r.Intn(20)) - 10
			default:
				fs[i] = r.NormFloat64() * 1e6
			}
			us[i] = r.Uint64() >> (r.Intn(4) * 16)
		}
		checkSortKeys(t, fs)
		checkSortKeys(t, us)
	}
}

func keyBits(k any) uint64 {
	if f, ok := k.(float64); ok {
		return math.Float64bits(f)
	}
	return k.(uint64)
}

func checkSortKeys[K float64 | uint64](t *testing.T, keys []K) {
	t.Helper()
	orig := slices.Clone(keys)
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(orig[a], orig[b]) })
	got := SortKeys(keys)
	if !slices.Equal(got, want) {
		t.Fatalf("%d %T keys: order %v, want %v", len(keys), keys, got[:min(len(got), 20)], want[:min(len(want), 20)])
	}
	for i, j := range got {
		if keyBits(keys[i]) != keyBits(orig[j]) {
			t.Fatalf("keys[%d] = %v is not the old keys[%d] = %v", i, keys[i], j, orig[j])
		}
	}
}

func TestPointsDimAndBounds(t *testing.T) {
	if _, err := PointsDim(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := PointsDim([]PV{{Point: Point{1, 2}}, {Point: Point{1}}}); err == nil {
		t.Fatal("mixed dimensions accepted")
	}
	pvs := []PV{{Point: Point{3, -1}}, {Point: Point{0, 7}}, {Point: Point{2, 2}}}
	if dim, err := PointsDim(pvs); err != nil || dim != 2 {
		t.Fatalf("dim %d err %v", dim, err)
	}
	if b := Bounds(pvs); !b.Min.Equal(Point{0, -1}) || !b.Max.Equal(Point{3, 7}) || !pvs[0].Point.Equal(Point{3, -1}) {
		t.Fatalf("bounds %v (input now %v)", b, pvs[0].Point)
	}
}

// TestKNNByWindow runs the window-doubling helper over a brute-force
// rectangle search: exact neighbours in order whatever the seed window,
// everything when k exceeds n, and an end when the window cannot grow.
func TestKNNByWindow(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	pvs := randomPVs(r, 300, 2)
	search := func(rect Rect, fn func(PV) bool) (int, int) {
		for _, pv := range pvs {
			if rect.Contains(pv.Point) && !fn(pv) {
				break
			}
		}
		return 0, 0
	}
	for _, side := range []float64{0, 1e-9, 50, 1e12} {
		for _, k := range []int{1, 7, 300, 1000} {
			q := Point{r.Float64() * 80, r.Float64()*80 - 20}
			got := KNNByWindow(q, k, len(pvs), side, search)
			d2 := make([]float64, len(pvs))
			for i, pv := range pvs {
				d2[i] = q.DistSq(pv.Point)
			}
			sort.Float64s(d2)
			if len(got) != min(k, len(pvs)) {
				t.Fatalf("side %g k %d: %d results", side, k, len(got))
			}
			for i, pv := range got {
				if q.DistSq(pv.Point) != d2[i] {
					t.Fatalf("side %g k %d: result %d at distance² %g, want %g", side, k, i, q.DistSq(pv.Point), d2[i])
				}
			}
		}
	}
	if got := KNNByWindow(Point{1, 1}, 0, 5, 1, search); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	// A count the search can never reach (here n overstated) must still end,
	// once the window is infinite, with what there is.
	if got := KNNByWindow(Point{1, 1}, len(pvs)+5, len(pvs)+10, 1, search); len(got) != len(pvs) {
		t.Fatalf("overstated n: %d results, want %d", len(got), len(pvs))
	}
}
