package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLowerUpperBound(t *testing.T) {
	keys := []Key{2, 4, 4, 4, 9, 15}
	cases := []struct {
		k      Key
		lo, up int
	}{
		{0, 0, 0}, {2, 0, 1}, {3, 1, 1}, {4, 1, 4}, {5, 4, 4},
		{9, 4, 5}, {14, 5, 5}, {15, 5, 6}, {16, 6, 6},
	}
	for _, c := range cases {
		if got := LowerBound(keys, c.k); got != c.lo {
			t.Errorf("LowerBound(%d) = %d, want %d", c.k, got, c.lo)
		}
		if got := UpperBound(keys, c.k); got != c.up {
			t.Errorf("UpperBound(%d) = %d, want %d", c.k, got, c.up)
		}
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	if got := LowerBound(nil, 5); got != 0 {
		t.Fatalf("LowerBound(nil) = %d", got)
	}
	if got := ExponentialSearch(nil, 5, 0); got != 0 {
		t.Fatalf("ExponentialSearch(nil) = %d", got)
	}
}

func TestSearchRangeClamps(t *testing.T) {
	keys := []Key{1, 3, 5, 7, 9}
	if got := SearchRange(keys, 5, -10, 100); got != 2 {
		t.Fatalf("SearchRange clamp = %d, want 2", got)
	}
	if got := SearchRange(keys, 0, 3, 1); got != 1 {
		t.Fatalf("SearchRange inverted = %d, want 1 (lo clamped down to hi)", got)
	}
}

// Property: for any sorted slice and key, SearchRange with a window known to
// contain the answer agrees with LowerBound, and ExponentialSearch and
// ExponentialSearchKV from any starting position agree with LowerBound.
func TestSearchAgreesWithLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(raw []uint64, probe uint64, start int) bool {
		keys := make([]Key, len(raw))
		copy(keys, raw)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		want := LowerBound(keys, probe)
		if got := SearchRange(keys, probe, 0, len(keys)); got != want {
			return false
		}
		if got := ExponentialSearch(keys, probe, start%(len(keys)+1)); got != want {
			return false
		}
		if got := ExponentialSearchKV(kvs(keys), probe, start%(len(keys)+1)); got != want {
			return false
		}
		// A window around the true position must also find it.
		lo := want - rng.Intn(3)
		hi := want + 1 + rng.Intn(3)
		return SearchRange(keys, probe, lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialSearchFarStart(t *testing.T) {
	keys := make([]Key, 1000)
	for i := range keys {
		keys[i] = Key(i * 2)
	}
	recs := kvs(keys)
	for _, start := range []int{0, 1, 3, 500, 999, -5, 5000} {
		for _, k := range []Key{0, 1, 2, 999, 1000, 1998, 1999, 2000} {
			want := LowerBound(keys, k)
			if got := ExponentialSearch(keys, k, start); got != want {
				t.Fatalf("ExponentialSearch(k=%d, start=%d) = %d, want %d", k, start, got, want)
			}
			if got := ExponentialSearchKV(recs, k, start); got != want {
				t.Fatalf("ExponentialSearchKV(k=%d, start=%d) = %d, want %d", k, start, got, want)
			}
		}
	}
}

// kvs returns keys as records, each valued with its index.
func kvs(keys []Key) []KV {
	recs := make([]KV, len(keys))
	for i, k := range keys {
		recs[i] = KV{Key: k, Value: Value(i)}
	}
	return recs
}

func TestRectBasics(t *testing.T) {
	r, err := NewRect(Point{0, 0}, Point{10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 5}) || !r.Contains(Point{5, 2.5}) {
		t.Fatal("Contains inclusive bounds failed")
	}
	if r.Contains(Point{10.1, 0}) || r.Contains(Point{-0.1, 0}) {
		t.Fatal("Contains accepted outside point")
	}
	if r.Area() != 50 {
		t.Fatalf("Area = %g", r.Area())
	}
	if r.Margin() != 15 {
		t.Fatalf("Margin = %g", r.Margin())
	}
	c := r.Center()
	if c[0] != 5 || c[1] != 2.5 {
		t.Fatalf("Center = %v", c)
	}
	if _, err := NewRect(Point{1}, Point{0}); err == nil {
		t.Fatal("NewRect accepted inverted bounds")
	}
	if _, err := NewRect(Point{1}, Point{0, 2}); err == nil {
		t.Fatal("NewRect accepted mismatched dims")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Min: Point{0, 0}, Max: Point{4, 4}}
	b := Rect{Min: Point{4, 4}, Max: Point{8, 8}} // touching corner counts
	c := Rect{Min: Point{5, 5}, Max: Point{8, 8}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("touching rects should intersect")
	}
	if a.Intersects(c) || c.Intersects(a) {
		t.Fatal("disjoint rects should not intersect")
	}
	if !a.ContainsRect(Rect{Min: Point{1, 1}, Max: Point{2, 2}}) {
		t.Fatal("ContainsRect failed")
	}
	if a.ContainsRect(b) {
		t.Fatal("ContainsRect accepted overflowing rect")
	}
}

func TestRectExpandAndEnlargement(t *testing.T) {
	a := Rect{Min: Point{0, 0}, Max: Point{2, 2}}
	grew := a.Clone().Expand(Rect{Min: Point{1, 1}, Max: Point{5, 1.5}})
	if grew.Max[0] != 5 || grew.Max[1] != 2 || grew.Min[0] != 0 {
		t.Fatalf("Expand = %+v", grew)
	}
	enl := a.EnlargementArea(Rect{Min: Point{1, 1}, Max: Point{5, 1.5}})
	if enl != 10-4 {
		t.Fatalf("EnlargementArea = %g, want 6", enl)
	}
	p := a.Clone().ExpandPoint(Point{-1, 3})
	if p.Min[0] != -1 || p.Max[1] != 3 {
		t.Fatalf("ExpandPoint = %+v", p)
	}
}

func TestMinDistSq(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{2, 2}}
	if d := r.MinDistSq(Point{1, 1}); d != 0 {
		t.Fatalf("inside dist = %g", d)
	}
	if d := r.MinDistSq(Point{5, 2}); d != 9 {
		t.Fatalf("right dist = %g", d)
	}
	if d := r.MinDistSq(Point{-3, -4}); d != 25 {
		t.Fatalf("corner dist = %g", d)
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Fatal("Clone aliases memory")
	}
	if !p.Equal(Point{1, 2, 3}) || p.Equal(Point{1, 2}) || p.Equal(Point{1, 2, 4}) {
		t.Fatal("Equal misbehaves")
	}
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %g", d)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestKVSliceSort(t *testing.T) {
	s := KVSlice{{3, 0}, {1, 0}, {2, 0}}
	sort.Sort(s)
	if s[0].Key != 1 || s[1].Key != 2 || s[2].Key != 3 {
		t.Fatalf("sorted = %v", s)
	}
	if LowerBoundKV([]KV(s), 2) != 1 || SearchRangeKV([]KV(s), 2, 0, 3) != 1 {
		t.Fatal("KV lower bound misbehaves")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Name: "x", Count: 1, IndexBytes: 2, DataBytes: 3, Height: 4, Models: 5}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}
