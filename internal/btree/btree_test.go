package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

func TestEmpty(t *testing.T) {
	tr := NewDefault()
	if tr.Len() != 0 {
		t.Fatal("empty len")
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("Get on empty")
	}
	if tr.Delete(5) {
		t.Fatal("Delete on empty")
	}
	if n := tr.Range(0, 100, func(core.Key, core.Value) bool { return true }); n != 0 {
		t.Fatal("Range on empty")
	}
	if tr.Height() != 1 {
		t.Fatalf("empty height %d", tr.Height())
	}
}

func TestInsertGetSmallOrder(t *testing.T) {
	tr := New(4) // force deep tree
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for j, i := range perm {
		if tr.Insert(core.Key(i*2), core.Value(i)); tr.Len() != j+1 {
			t.Fatalf("Insert(%d) did not add a key", i*2)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(core.Key(i * 2))
		if !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = %d,%v", i*2, v, ok)
		}
		if _, ok := tr.Get(core.Key(i*2 + 1)); ok {
			t.Fatalf("Get(%d) found phantom", i*2+1)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d too small for order-4 with %d keys", tr.Height(), n)
	}
}

func TestUpsert(t *testing.T) {
	tr := NewDefault()
	tr.Insert(7, 1)
	if tr.Insert(7, 2); tr.Len() != 1 {
		t.Fatal("second insert of same key added a key")
	}
	if v, _ := tr.Get(7); v != 2 {
		t.Fatalf("upsert value = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestBulkMatchesInserts(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Clustered, 20000, 2)
	recs := dataset.KV(keys)
	bt, err := Bulk(32, recs)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Len() != len(recs) {
		t.Fatalf("bulk len = %d", bt.Len())
	}
	for i := 0; i < len(keys); i += 37 {
		v, ok := bt.Get(keys[i])
		if !ok || v != recs[i].Value {
			t.Fatalf("bulk Get(%d) = %d,%v", keys[i], v, ok)
		}
	}
	// Misses.
	for i := 0; i+1 < len(keys); i += 97 {
		if keys[i]+1 < keys[i+1] {
			if _, ok := bt.Get(keys[i] + 1); ok {
				t.Fatalf("bulk found phantom key")
			}
		}
	}
	// Scan returns everything in order.
	var got []core.Key
	bt.Scan(func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("scan len = %d", len(got))
	}
	for i := range got {
		if got[i] != keys[i] {
			t.Fatalf("scan order broken at %d", i)
		}
	}
}

func TestBulkErrors(t *testing.T) {
	if _, err := Bulk(8, []core.KV{{Key: 5}, {Key: 3}}); err == nil {
		t.Fatal("unsorted bulk accepted")
	}
	bt, err := Bulk(8, nil)
	if err != nil || bt.Len() != 0 {
		t.Fatal("empty bulk failed")
	}
	// Duplicates: last wins.
	bt, err = Bulk(8, []core.KV{{Key: 1, Value: 10}, {Key: 1, Value: 20}, {Key: 2, Value: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 2 {
		t.Fatalf("dup bulk len = %d", bt.Len())
	}
	if v, _ := bt.Get(1); v != 20 {
		t.Fatalf("dup bulk Get(1) = %d", v)
	}
}

func TestRange(t *testing.T) {
	tr := New(8)
	for i := 0; i < 1000; i++ {
		tr.Insert(core.Key(i*10), core.Value(i))
	}
	var got []core.Key
	n := tr.Range(95, 255, func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	want := []core.Key{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("range returned %d records: %v", n, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	count := 0
	tr.Range(0, 1<<62, func(core.Key, core.Value) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
	// Inclusive single key.
	if n := tr.Range(500, 500, func(core.Key, core.Value) bool { return true }); n != 1 {
		t.Fatalf("point range = %d", n)
	}
}

func TestDelete(t *testing.T) {
	tr := New(4)
	const n = 3000
	r := rand.New(rand.NewSource(9))
	perm := r.Perm(n)
	for _, i := range perm {
		tr.Insert(core.Key(i), core.Value(i))
	}
	// Delete a random half.
	deleted := map[int]bool{}
	for _, i := range r.Perm(n)[:n/2] {
		if !tr.Delete(core.Key(i)) {
			t.Fatalf("Delete(%d) missed", i)
		}
		deleted[i] = true
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(core.Key(i))
		if ok == deleted[i] {
			t.Fatalf("Get(%d) = %v, deleted = %v", i, ok, deleted[i])
		}
	}
	// Scan order still correct and linked leaves intact.
	prev := core.Key(0)
	first := true
	tr.Scan(func(k core.Key, v core.Value) bool {
		if !first && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		return true
	})
	// Delete everything else.
	for i := 0; i < n; i++ {
		if !deleted[i] {
			if !tr.Delete(core.Key(i)) {
				t.Fatalf("final Delete(%d) missed", i)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after all deletes = %d", tr.Len())
	}
	if tr.Delete(0) {
		t.Fatal("Delete on drained tree succeeded")
	}
}

// Property: the tree agrees with a reference map under a random operation
// sequence.
func TestTreeMatchesMapProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(77))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(4 + r.Intn(12))
		ref := map[core.Key]core.Value{}
		for op := 0; op < 3000; op++ {
			k := core.Key(r.Intn(500))
			switch r.Intn(3) {
			case 0:
				v := core.Value(r.Uint64())
				tr.Insert(k, v)
				ref[k] = v
			case 1:
				got := tr.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			case 2:
				v, ok := tr.Get(k)
				wv, wok := ref[k]
				if ok != wok || (ok && v != wv) {
					return false
				}
			}
			if tr.Len() != len(ref) {
				return false
			}
		}
		// Final full comparison via scan.
		keys := make([]core.Key, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i := 0
		okAll := true
		tr.Scan(func(k core.Key, v core.Value) bool {
			if i >= len(keys) || keys[i] != k || ref[k] != v {
				okAll = false
				return false
			}
			i++
			return true
		})
		return okAll && i == len(keys)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Uniform, 10000, 3)
	bt, _ := Bulk(64, dataset.KV(keys))
	st := bt.Stats()
	if st.Count != 10000 || st.IndexBytes <= 0 || st.DataBytes <= 0 || st.Height < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOrderClamp(t *testing.T) {
	tr := New(1)
	for i := 0; i < 100; i++ {
		tr.Insert(core.Key(i), 0)
	}
	if tr.Len() != 100 {
		t.Fatal("clamped order tree broken")
	}
}

func TestInterpolationSearchAgrees(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Lognormal, dataset.Adversarial} {
		keys, _ := dataset.Keys(kind, 20000, 91)
		recs := dataset.KV(keys)
		plain, err := Bulk(64, recs)
		if err != nil {
			t.Fatal(err)
		}
		interp, err := Bulk(64, recs)
		if err != nil {
			t.Fatal(err)
		}
		interp.SetInterpolation(true)
		probes, _ := dataset.Keys(dataset.Uniform, 5000, 92)
		for _, p := range append(probes, keys[:2000]...) {
			v1, ok1 := plain.Get(p)
			v2, ok2 := interp.Get(p)
			if ok1 != ok2 || v1 != v2 {
				t.Fatalf("%s: interpolation Get(%d) = %d,%v, binary %d,%v", kind, p, v2, ok2, v1, ok1)
			}
		}
		// Range agreement.
		for _, q := range dataset.Ranges(keys, 20, 0.005, 93) {
			n1 := plain.Range(q.Lo, q.Hi, func(core.Key, core.Value) bool { return true })
			n2 := interp.Range(q.Lo, q.Hi, func(core.Key, core.Value) bool { return true })
			if n1 != n2 {
				t.Fatalf("%s: range mismatch %d vs %d", kind, n1, n2)
			}
		}
	}
}

func TestInterpolationWithInserts(t *testing.T) {
	tr := New(32)
	tr.SetInterpolation(true)
	for i := 0; i < 10000; i++ {
		tr.Insert(core.Key(i*i), core.Value(i))
	}
	for i := 0; i < 10000; i++ {
		if v, ok := tr.Get(core.Key(i * i)); !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = %d,%v", i*i, v, ok)
		}
	}
}
