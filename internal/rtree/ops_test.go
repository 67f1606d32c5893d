package rtree

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// oracle is the slice a tree under test is checked against. It owns clones
// of its points.
type oracle []core.PV

func (o *oracle) insert(p core.Point, v core.Value) {
	*o = append(*o, core.PV{Point: p.Clone(), Value: v})
}

func (o *oracle) delete(p core.Point, v core.Value) bool {
	for i, pv := range *o {
		if pv.Value == v && pv.Point.Equal(p) {
			*o = slices.Delete(*o, i, i+1)
			return true
		}
	}
	return false
}

// in returns the sorted values of the points inside rect.
func (o oracle) in(rect core.Rect) []core.Value {
	var vals []core.Value
	for _, pv := range o {
		if rect.Contains(pv.Point) {
			vals = append(vals, pv.Value)
		}
	}
	slices.Sort(vals)
	return vals
}

// check compares what tr answers about rect, the point p and the k nearest
// to p with the oracle's answers.
func (o oracle) check(t testing.TB, tr *Tree, rect core.Rect, p core.Point, k int) {
	t.Helper()
	if tr.Len() != len(o) {
		t.Fatalf("Len = %d, oracle holds %d", tr.Len(), len(o))
	}
	var got []core.Value
	visited, _ := tr.Search(rect, func(pv core.PV) bool {
		if !rect.Contains(pv.Point) {
			t.Fatalf("Search(%v) returned %v", rect, pv.Point)
		}
		got = append(got, pv.Value)
		return true
	})
	slices.Sort(got)
	if want := o.in(rect); visited != len(want) || !slices.Equal(got, want) {
		t.Fatalf("Search(%v): visited %d, values %v, want %v", rect, visited, got, want)
	}
	at := o.in(core.Rect{Min: p, Max: p})
	if v, ok := tr.Lookup(p); ok != (len(at) > 0) || (ok && !slices.Contains(at, v)) {
		t.Fatalf("Lookup(%v) = %d, %v; the oracle holds values %v there", p, v, ok, at)
	}
	var d2 []float64
	for _, pv := range tr.KNN(p, k) {
		d2 = append(d2, p.DistSq(pv.Point))
	}
	if want := bruteKNN(o, p, k); !slices.Equal(d2, want) {
		t.Fatalf("KNN(%v, %d) distances %v, want %v", p, k, d2, want)
	}
}

// TestOpsMatchOracle drives a bulk load and a random interleaving of
// inserts and deletes through the one node layout, in the 2-D fast path and
// the generic one, against a slice. Every point handed to the tree is
// overwritten as soon as the call returns: the tree owns its coordinates.
func TestOpsMatchOracle(t *testing.T) {
	for _, dim := range []int{2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(40 + dim)))
		// A lattice coarse enough for equal points and degenerate boxes.
		random := func(p core.Point) core.Point {
			for d := range p {
				p[d] = float64(rng.Intn(40))
			}
			return p
		}
		var o oracle
		input := make([]core.PV, 1500)
		for i := range input {
			input[i] = core.PV{Point: random(make(core.Point, dim)), Value: core.Value(i)}
			o.insert(input[i].Point, input[i].Value)
		}
		tr, err := BulkSTR(8, input)
		if err != nil {
			t.Fatal(err)
		}
		for _, pv := range input {
			random(pv.Point)
		}
		verify := func() {
			t.Helper()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%d-D: %v", dim, err)
			}
			for i := 0; i < 12; i++ {
				lo, hi := random(make(core.Point, dim)), random(make(core.Point, dim))
				for d := range lo {
					lo[d], hi[d] = min(lo[d], hi[d]), max(lo[d], hi[d])+float64(rng.Intn(12))
				}
				p := random(make(core.Point, dim))
				if len(o) > 0 && i%2 == 0 {
					p = o[rng.Intn(len(o))].Point
				}
				o.check(t, tr, core.Rect{Min: lo, Max: hi}, p, 1+rng.Intn(9))
			}
		}
		verify()
		p := make(core.Point, dim)
		next := core.Value(len(input))
		step := func(insertShare int) {
			switch r := rng.Intn(100); {
			case r < insertShare:
				if err := tr.Insert(random(p), next); err != nil {
					t.Fatal(err)
				}
				o.insert(p, next)
				next++
			case r < 95 && len(o) > 0:
				pv := o[rng.Intn(len(o))]
				copy(p, pv.Point)
				if !tr.Delete(p, pv.Value) || !o.delete(p, pv.Value) {
					t.Fatalf("%d-D: Delete(%v, %d) of a stored point failed", dim, p, pv.Value)
				}
			default:
				if tr.Delete(random(p), next) {
					t.Fatalf("%d-D: Delete(%v, %d) of an absent record succeeded", dim, p, next)
				}
			}
			random(p)
		}
		for i := 1; i <= 4000; i++ {
			step(50)
			if i%250 == 0 {
				verify()
			}
		}
		// Down to nothing through every underflow and root collapse, and up
		// again from the empty tree.
		for i := 1; len(o) > 0; i++ {
			step(10)
			if i%250 == 0 {
				verify()
			}
		}
		verify()
		for i := 0; i < 300; i++ {
			step(100)
		}
		verify()
	}
}

// FuzzRTreeOps decodes a byte stream into inserts, deletes, rectangle and
// point searches and kNN queries on an 8 x 8 lattice with four values, so
// equal records, equal points and zero-area boxes are the common case, and
// checks every answer against a slice scan.
func FuzzRTreeOps(f *testing.F) {
	f.Add([]byte{0, 9, 0, 9, 0, 18, 1, 9, 2, 0, 63, 3, 9, 4, 9})
	f.Add(bytes.Repeat([]byte{0, 27, 0}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New(4)
		var o oracle
		point := func(b byte) core.Point { return core.Point{float64(b & 7), float64(b >> 3 & 7)} }
		for len(data) >= 3 {
			op, a, b := data[0]%5, data[1], data[2]
			data = data[3:]
			p, v := point(a), core.Value(a>>6)
			switch op {
			case 0, 1:
				if err := tr.Insert(p, v); err != nil {
					t.Fatal(err)
				}
				o.insert(p, v)
			case 2:
				if got, want := tr.Delete(p, v), o.delete(p, v); got != want {
					t.Fatalf("Delete(%v, %d) = %v, want %v", p, v, got, want)
				}
			default:
				q := point(b)
				rect := core.Rect{
					Min: core.Point{min(p[0], q[0]), min(p[1], q[1])},
					Max: core.Point{max(p[0], q[0]), max(p[1], q[1])},
				}
				o.check(t, tr, rect, p, 1+int(b>>6))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSearchDoesNotAllocate holds a rectangle search on a bulk-loaded 2-D
// tree to zero allocations: its state lives on Search's stack and a leaf is
// scanned in place.
func TestSearchDoesNotAllocate(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 20000, 2, 46)
	tr, err := BulkSTR(DefaultMaxEntries, dataset.PV(pts))
	if err != nil {
		t.Fatal(err)
	}
	rect := dataset.RectQueries(pts, 1, 0.01, 47)[0]
	var sum core.Value
	add := func(pv core.PV) bool { sum += pv.Value; return true }
	if allocs := testing.AllocsPerRun(50, func() { tr.Search(rect, add); tr.Lookup(pts[4321]) }); allocs != 0 {
		t.Errorf("%v allocations per search + lookup, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("the searches found nothing")
	}
}

// TestStatsMatchHeap holds Stats to what a bulk-loaded tree costs: its
// IndexBytes + DataBytes within 15 % of the live heap the build added.
func TestStatsMatchHeap(t *testing.T) {
	pts, _ := dataset.Points(dataset.SOSMLike, 200_000, 2, 48)
	pvs := dataset.PV(pts)
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	tr, err := BulkSTR(DefaultMaxEntries, pvs)
	if err != nil {
		t.Fatal(err)
	}
	grew := float64(live() - before)
	st := tr.Stats()
	if said := float64(st.IndexBytes + st.DataBytes); said < 0.85*grew || said > 1.15*grew {
		t.Errorf("Stats says %d + %d B, the heap grew by %.0f B", st.IndexBytes, st.DataBytes, grew)
	}
	t.Logf("%.1f B/point on the heap, Stats %.1f (%d nodes)", grew/float64(len(pvs)),
		float64(st.IndexBytes+st.DataBytes)/float64(len(pvs)), st.Models)
	runtime.KeepAlive(pvs)
}
