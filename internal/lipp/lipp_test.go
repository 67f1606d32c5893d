package lipp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

func TestBulkAllDistributions(t *testing.T) {
	for _, kind := range dataset.Kinds() {
		keys, err := dataset.Keys(kind, 8000, 601)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Bulk(dataset.KV(keys))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != 8000 {
			t.Fatalf("%s: len = %d", kind, ix.Len())
		}
		for _, k := range keys {
			v, ok := ix.Get(k)
			if !ok || v != dataset.PayloadFor(k) {
				t.Fatalf("%s: Get(%d) = %d,%v", kind, k, v, ok)
			}
		}
		r := rand.New(rand.NewSource(602))
		for i := 0; i+1 < len(keys); i += 23 {
			if keys[i]+1 >= keys[i+1] {
				continue
			}
			probe := keys[i] + 1 + core.Key(r.Int63n(int64(keys[i+1]-keys[i]-1)))
			if _, ok := ix.Get(probe); ok {
				t.Fatalf("%s: phantom %d", kind, probe)
			}
		}
	}
}

func TestInsertFromEmpty(t *testing.T) {
	ix := New()
	const n = 20000
	r := rand.New(rand.NewSource(603))
	perm := r.Perm(n)
	for j, i := range perm {
		if ix.Insert(core.Key(i*5), core.Value(i)); ix.Len() != j+1 {
			t.Fatalf("Insert(%d) did not add a key", i*5)
		}
	}
	if ix.Len() != n {
		t.Fatalf("len = %d", ix.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := ix.Get(core.Key(i * 5))
		if !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = %d,%v", i*5, v, ok)
		}
	}
	if ix.Conflicts == 0 {
		t.Fatal("expected conflicts during random inserts")
	}
	if ix.Rebuilds == 0 {
		t.Fatal("expected adjustment rebuilds")
	}
	if h := ix.Height(); h > 40 {
		t.Fatalf("height %d looks unbounded", h)
	}
}

func TestUpsertAndDelete(t *testing.T) {
	ix := New()
	ix.Insert(9, 1)
	if ix.Insert(9, 2); ix.Len() != 1 {
		t.Fatal("upsert added a key")
	}
	if v, _ := ix.Get(9); v != 2 {
		t.Fatal("upsert value")
	}
	if !ix.Delete(9) {
		t.Fatal("delete missed")
	}
	if ix.Delete(9) {
		t.Fatal("double delete")
	}
	if _, ok := ix.Get(9); ok {
		t.Fatal("deleted key found")
	}
	if ix.Len() != 0 {
		t.Fatalf("len = %d", ix.Len())
	}
}

func TestRangeOrdered(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Clustered, 10000, 604)
	ix, err := Bulk(dataset.KV(keys))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range dataset.Ranges(keys, 30, 0.005, 605) {
		want := core.UpperBound(keys, q.Hi) - core.LowerBound(keys, q.Lo)
		var got []core.Key
		n := ix.Range(q.Lo, q.Hi, func(k core.Key, v core.Value) bool {
			got = append(got, k)
			return true
		})
		if n != want {
			t.Fatalf("Range(%d,%d) = %d, want %d", q.Lo, q.Hi, n, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatal("range out of order")
			}
		}
	}
	count := 0
	ix.Range(0, ^core.Key(0), func(core.Key, core.Value) bool { count++; return count < 6 })
	if count != 6 {
		t.Fatalf("early stop = %d", count)
	}
}

func TestFloatCollidingKeys(t *testing.T) {
	// Distinct uint64 keys above 2^53 that round to identical float64s.
	base := core.Key(1) << 60
	var recs []core.KV
	for i := 0; i < 64; i++ {
		recs = append(recs, core.KV{Key: base + core.Key(i), Value: core.Value(i)})
	}
	ix, err := Bulk(recs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		v, ok := ix.Get(r.Key)
		if !ok || v != core.Value(i) {
			t.Fatalf("float-colliding Get(%d) = %d,%v", r.Key, v, ok)
		}
	}
	// Insert more colliding keys dynamically.
	ix2 := New()
	for i := 0; i < 64; i++ {
		if ix2.Insert(base+core.Key(i), core.Value(i)); ix2.Len() != i+1 {
			t.Fatal("insert did not add a key")
		}
	}
	if ix2.Len() != 64 {
		t.Fatalf("len = %d", ix2.Len())
	}
	for i := 0; i < 64; i++ {
		if v, ok := ix2.Get(base + core.Key(i)); !ok || v != core.Value(i) {
			t.Fatalf("dynamic float-colliding Get failed at %d", i)
		}
	}
	// Delete half of them.
	for i := 0; i < 64; i += 2 {
		if !ix2.Delete(base + core.Key(i)) {
			t.Fatalf("delete %d missed", i)
		}
	}
	if ix2.Len() != 32 {
		t.Fatalf("len = %d", ix2.Len())
	}
	// Range over them.
	n := ix2.Range(base, base+64, func(core.Key, core.Value) bool { return true })
	if n != 32 {
		t.Fatalf("range over runs = %d", n)
	}
}

func TestMixedWorkloadMatchesMap(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(606))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := New()
		ref := map[core.Key]core.Value{}
		for op := 0; op < 5000; op++ {
			k := core.Key(r.Intn(1500))
			switch r.Intn(4) {
			case 0, 1:
				v := core.Value(r.Uint64())
				ix.Insert(k, v)
				ref[k] = v
			case 2:
				got := ix.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			case 3:
				v, ok := ix.Get(k)
				wv, wok := ref[k]
				if ok != wok || (ok && v != wv) {
					return false
				}
			}
			if ix.Len() != len(ref) {
				return false
			}
		}
		seen := 0
		okAll := true
		ix.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
			wv, wok := ref[k]
			if !wok || wv != v {
				okAll = false
				return false
			}
			seen++
			return true
		})
		return okAll && seen == len(ref)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsAndStats(t *testing.T) {
	if _, err := Bulk([]core.KV{{Key: 5}, {Key: 1}}); err == nil {
		t.Fatal("unsorted accepted")
	}
	ix, err := Bulk([]core.KV{{Key: 1, Value: 1}, {Key: 1, Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 {
		t.Fatal("dup bulk len")
	}
	if v, _ := ix.Get(1); v != 2 {
		t.Fatal("dup bulk last-wins")
	}
	empty, _ := Bulk(nil)
	if _, ok := empty.Get(1); ok {
		t.Fatal("empty get")
	}
	keys, _ := dataset.Keys(dataset.Uniform, 20000, 607)
	big, _ := Bulk(dataset.KV(keys))
	st := big.Stats()
	if st.Count != 20000 || st.Models < 1 || st.Height < 1 || st.IndexBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPreciseLookupNoSearch(t *testing.T) {
	// The defining property: after Bulk, every present key is found by
	// following predictions only — verified implicitly by Get — and the
	// tree is shallow for smooth data.
	keys, _ := dataset.Keys(dataset.Uniform, 50000, 608)
	ix, _ := Bulk(dataset.KV(keys))
	if h := ix.Height(); h > 12 {
		t.Fatalf("height %d too deep for uniform data", h)
	}
}

// TestPredictHugeKeyOverflow is a regression test for a bug found by the
// conform differential suite (shrunk repro: bulk-load {1, 2, MaxUint64}).
// predict used to convert slope*(float64(k)-base) to int before clamping;
// for keys near 2^64 the product exceeds the int64 range and the conversion
// is implementation-defined (minInt64 on amd64), so the huge key was folded
// onto slot 0 and the tree's key ordering broke.
func TestPredictHugeKeyOverflow(t *testing.T) {
	const huge = ^core.Key(0) // math.MaxUint64
	cases := [][]core.KV{
		{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: huge, Value: 30}},
		{{Key: 0, Value: 1}, {Key: huge - 1, Value: 2}, {Key: huge, Value: 3}},
	}
	for ci, recs := range cases {
		// Both construction paths must survive huge keys.
		bulk, err := Bulk(append([]core.KV(nil), recs...))
		if err != nil {
			t.Fatalf("case %d: Bulk: %v", ci, err)
		}
		inc := New()
		for _, kv := range recs {
			inc.Insert(kv.Key, kv.Value)
		}
		for name, ix := range map[string]*Index{"bulk": bulk, "incremental": inc} {
			for _, kv := range recs {
				if v, ok := ix.Get(kv.Key); !ok || v != kv.Value {
					t.Errorf("case %d/%s: Get(%d) = (%d, %v), want (%d, true)",
						ci, name, kv.Key, v, ok, kv.Value)
				}
			}
			prev, seen, n := core.Key(0), false, 0
			ix.Range(0, huge, func(k core.Key, _ core.Value) bool {
				if seen && k <= prev {
					t.Errorf("case %d/%s: Range not strictly ascending: %d after %d",
						ci, name, k, prev)
					return false
				}
				seen, prev = true, k
				n++
				return true
			})
			if n != len(recs) {
				t.Errorf("case %d/%s: Range visited %d records, want %d", ci, name, n, len(recs))
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Errorf("case %d/%s: %v", ci, name, err)
			}
		}
	}
}
