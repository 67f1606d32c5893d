package btree

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// TestApplyMatchesPointOps drives two trees of each order through the same
// random batches, one through Apply and one op by op: every answer, the
// contents and the invariants must agree after each batch. The keys crowd
// a few leaves of a small order, so nearly every chunk splits, borrows or
// merges between its located positions.
func TestApplyMatchesPointOps(t *testing.T) {
	for _, order := range []int{4, 5, 16, DefaultOrder} {
		rng := rand.New(rand.NewSource(int64(order)))
		var init []core.KV
		for k := 0; k < 3000; k += 2 {
			init = append(init, core.KV{Key: core.Key(k), Value: core.Value(k)})
		}
		batched, _ := Bulk(order, init)
		point, _ := Bulk(order, init)
		for _, interp := range []bool{false, true} {
			batched.SetInterpolation(interp)
			point.SetInterpolation(interp)
			for b := 0; b < 300; b++ {
				lo := rng.Intn(3000)
				ops := make([]core.Op, 1+rng.Intn(100))
				for i := range ops {
					k := core.Key(lo + rng.Intn(40+order*4))
					switch p := rng.Intn(10); {
					case p < 3:
						ops[i] = core.Op{Kind: core.OpGet, Key: k}
					case p < 6:
						ops[i] = core.Op{Kind: core.OpPut, Key: k, Val: core.Value(b<<16 | i)}
					default:
						ops[i] = core.Op{Kind: core.OpDel, Key: k}
					}
				}
				vals, oks := make([]core.Value, len(ops)), make([]bool, len(ops))
				batched.Apply(ops, vals, oks, nil)
				for i, op := range ops {
					switch op.Kind {
					case core.OpGet:
						if v, ok := point.Get(op.Key); v != vals[i] || ok != oks[i] {
							t.Fatalf("order %d batch %d op %d: get %d = (%d, %v), point (%d, %v)", order, b, i, op.Key, vals[i], oks[i], v, ok)
						}
					case core.OpPut:
						point.Insert(op.Key, op.Val)
					case core.OpDel:
						if ok := point.Delete(op.Key); ok != oks[i] {
							t.Fatalf("order %d batch %d op %d: del %d = %v, point %v", order, b, i, op.Key, oks[i], ok)
						}
					}
				}
				if err := batched.CheckInvariants(); err != nil {
					t.Fatalf("order %d batch %d: %v", order, b, err)
				}
				if batched.Len() != point.Len() {
					t.Fatalf("order %d batch %d: Len %d, point %d", order, b, batched.Len(), point.Len())
				}
			}
		}
		var got, want []core.KV
		batched.Scan(func(k core.Key, v core.Value) bool { got = append(got, core.KV{Key: k, Value: v}); return true })
		point.Scan(func(k core.Key, v core.Value) bool { want = append(want, core.KV{Key: k, Value: v}); return true })
		if len(got) != len(want) {
			t.Fatalf("order %d: %d records, point %d", order, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("order %d: record %d = %v, point %v", order, i, got[i], want[i])
			}
		}
	}
}

// TestSearchesMatchCore holds the branch-free searches to core's.
func TestSearchesMatchCore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 130; n++ {
		keys := make([]core.Key, n)
		for i := range keys {
			keys[i] = core.Key(2*i + 1)
		}
		for k := core.Key(0); k <= core.Key(2*n+2); k++ {
			if got, want := lowerBound(keys, k), core.LowerBound(keys, k); got != want {
				t.Fatalf("n %d: lowerBound(%d) = %d, want %d", n, k, got, want)
			}
			if got, want := upperBound(keys, k), core.UpperBound(keys, k); got != want {
				t.Fatalf("n %d: upperBound(%d) = %d, want %d", n, k, got, want)
			}
		}
		if n > 0 {
			big := ^core.Key(0) - core.Key(rng.Intn(3))
			keys[n-1] = big
			if got, want := lowerBound(keys, ^core.Key(0)), core.LowerBound(keys, ^core.Key(0)); got != want {
				t.Fatalf("n %d: lowerBound(max) = %d, want %d", n, got, want)
			}
			if got, want := upperBound(keys, ^core.Key(0)), core.UpperBound(keys, ^core.Key(0)); got != want {
				t.Fatalf("n %d: upperBound(max) = %d, want %d", n, got, want)
			}
		}
	}
}

// TestLeafBytesPerKey pins what a tree grown by 50 k random inserts costs:
// every leaf's arrays hold order records from its first key on, and a
// split leaves both halves on those arrays, so a tree about 70 % full
// reports about 16/0.7 B of arrays per record plus its nodes. Stats counts
// capacity and must agree with the heap within 15 %: counting lengths, it
// said 16.9 B/key while the heap held 24.8.
func TestLeafBytesPerKey(t *testing.T) {
	keys, err := dataset.Keys(dataset.Uniform, 50_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	tr := NewDefault()
	for _, i := range rand.New(rand.NewSource(5)).Perm(len(keys)) {
		tr.Insert(keys[i], core.Value(i))
	}
	grew := float64(live() - before)
	st := tr.Stats()
	said := float64(st.IndexBytes + st.DataBytes)
	perKey := said / float64(st.Count)
	t.Logf("Stats %.1f B/key (%d leaves+inners), heap %.1f B/key", perKey, st.Models, grew/float64(st.Count))
	if perKey < 20 || perKey > 28 {
		t.Errorf("Stats says %.1f B/key after %d random inserts, want 20-28", perKey, st.Count)
	}
	if said < 0.85*grew || said > 1.15*grew {
		t.Errorf("Stats says %.0f B, the heap grew by %.0f B", said, grew)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(keys)
}
