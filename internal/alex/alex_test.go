package alex

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

func TestBulkAllDistributions(t *testing.T) {
	for _, kind := range dataset.Kinds() {
		keys, err := dataset.Keys(kind, 10000, 501)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Bulk(dataset.KV(keys))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != 10000 {
			t.Fatalf("%s: len = %d", kind, ix.Len())
		}
		for _, k := range keys {
			v, ok := ix.Get(k)
			if !ok || v != dataset.PayloadFor(k) {
				t.Fatalf("%s: Get(%d) = %d,%v", kind, k, v, ok)
			}
		}
		// Misses.
		r := rand.New(rand.NewSource(502))
		for i := 0; i+1 < len(keys); i += 29 {
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
	r := rand.New(rand.NewSource(503))
	perm := r.Perm(n)
	for j, i := range perm {
		if ix.Insert(core.Key(i*3), core.Value(i)); ix.Len() != j+1 {
			t.Fatalf("Insert(%d) did not add a key", i*3)
		}
	}
	if ix.Len() != n {
		t.Fatalf("len = %d", ix.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := ix.Get(core.Key(i * 3))
		if !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = %d,%v", i*3, v, ok)
		}
		if _, ok := ix.Get(core.Key(i*3 + 1)); ok {
			t.Fatalf("phantom %d", i*3+1)
		}
	}
	if ix.Expands == 0 {
		t.Fatal("expected node expansions")
	}
}

func TestSequentialAppendTriggersSplits(t *testing.T) {
	ix := New()
	const n = 60000
	for i := 0; i < n; i++ {
		ix.Insert(core.Key(i), core.Value(i))
	}
	if ix.Splits == 0 {
		t.Fatal("expected splits after sustained appends")
	}
	if ix.Len() != n {
		t.Fatalf("len = %d", ix.Len())
	}
	for i := 0; i < n; i += 97 {
		if v, ok := ix.Get(core.Key(i)); !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	// Full ordered scan via Range.
	prev := -1
	count := ix.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		if int(k) <= prev {
			t.Fatalf("scan out of order at %d", k)
		}
		prev = int(k)
		return true
	})
	if count != n {
		t.Fatalf("scan count = %d", count)
	}
}

func TestUpsert(t *testing.T) {
	ix := New()
	ix.Insert(5, 1)
	if ix.Insert(5, 2); ix.Len() != 1 {
		t.Fatal("upsert added a key")
	}
	if v, _ := ix.Get(5); v != 2 {
		t.Fatalf("upsert = %d", v)
	}
	if ix.Len() != 1 {
		t.Fatalf("len = %d", ix.Len())
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	ix := New()
	const n = 5000
	for i := 0; i < n; i++ {
		ix.Insert(core.Key(i*2), core.Value(i))
	}
	for i := 0; i < n; i += 2 {
		if !ix.Delete(core.Key(i * 2)) {
			t.Fatalf("Delete(%d) missed", i*2)
		}
	}
	if ix.Delete(1) {
		t.Fatal("deleted phantom")
	}
	if ix.Len() != n/2 {
		t.Fatalf("len = %d", ix.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := ix.Get(core.Key(i * 2))
		if ok != (i%2 == 1) {
			t.Fatalf("Get(%d) = %v", i*2, ok)
		}
	}
	// Reinsert deleted keys (exercises the claim-deleted-gap fast path).
	for i := 0; i < n; i += 2 {
		had := ix.Len()
		if ix.Insert(core.Key(i*2), core.Value(i+1)); ix.Len() != had+1 {
			t.Fatalf("reinsert %d did not add a key", i*2)
		}
	}
	if ix.Len() != n {
		t.Fatalf("len after reinsert = %d", ix.Len())
	}
	if v, _ := ix.Get(0); v != 1 {
		t.Fatal("reinserted value wrong")
	}
}

func TestRange(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Clustered, 30000, 504)
	ix, err := Bulk(dataset.KV(keys))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range dataset.Ranges(keys, 40, 0.003, 505) {
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
	ix.Range(0, ^core.Key(0), func(core.Key, core.Value) bool { count++; return count < 11 })
	if count != 11 {
		t.Fatalf("early stop = %d", count)
	}
}

func TestMixedWorkloadMatchesMap(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(506))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := New()
		ref := map[core.Key]core.Value{}
		for op := 0; op < 6000; op++ {
			k := core.Key(r.Intn(2000))
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
		// Ordered scan equals sorted ref.
		seen := 0
		okAll := true
		prev := core.Key(0)
		first := true
		ix.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
			if !first && k <= prev {
				okAll = false
				return false
			}
			prev, first = k, false
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

func TestBulkThenInsert(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Lognormal, 50000, 507)
	ix, err := Bulk(dataset.KV(keys))
	if err != nil {
		t.Fatal(err)
	}
	// Insert fresh keys between existing ones.
	r := rand.New(rand.NewSource(508))
	inserted := map[core.Key]bool{}
	for len(inserted) < 20000 {
		i := r.Intn(len(keys) - 1)
		if keys[i]+1 >= keys[i+1] {
			continue
		}
		k := keys[i] + 1 + core.Key(r.Int63n(int64(keys[i+1]-keys[i]-1)))
		if inserted[k] {
			continue
		}
		ix.Insert(k, 7)
		inserted[k] = true
	}
	if ix.Len() != len(keys)+len(inserted) {
		t.Fatalf("len = %d, want %d", ix.Len(), len(keys)+len(inserted))
	}
	for k := range inserted {
		if v, ok := ix.Get(k); !ok || v != 7 {
			t.Fatalf("inserted key %d lost", k)
		}
	}
	for i := 0; i < len(keys); i += 131 {
		if _, ok := ix.Get(keys[i]); !ok {
			t.Fatalf("bulk key %d lost", keys[i])
		}
	}
}

func TestErrorsAndStats(t *testing.T) {
	if _, err := Bulk([]core.KV{{Key: 5}, {Key: 1}}); err == nil {
		t.Fatal("unsorted bulk accepted")
	}
	// Duplicates in bulk: last wins.
	ix, err := Bulk([]core.KV{{Key: 1, Value: 1}, {Key: 1, Value: 2}, {Key: 3, Value: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2 {
		t.Fatalf("dup bulk len = %d", ix.Len())
	}
	if v, _ := ix.Get(1); v != 2 {
		t.Fatal("dup bulk value")
	}
	empty, err := Bulk(nil)
	if err != nil || empty.Len() != 0 {
		t.Fatal("empty bulk")
	}
	if _, ok := empty.Get(1); ok {
		t.Fatal("empty get")
	}
	keys, _ := dataset.Keys(dataset.Uniform, 30000, 509)
	big, _ := Bulk(dataset.KV(keys))
	st := big.Stats()
	if st.Count != 30000 || st.Models < 2 || st.Height < 2 || st.DataBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWrittenWordsOffTheReadLines pins what alex.go says about cacheLine:
// the counters an insert or delete writes share no cache line with the
// words a lookup loads, in Index and in every leaf, and both structs start
// on a line boundary wherever the allocator puts them.
func TestWrittenWordsOffTheReadLines(t *testing.T) {
	var ix Index
	if unsafe.Sizeof(ix)%cacheLine != 0 || unsafe.Offsetof(ix.size) != cacheLine ||
		unsafe.Offsetof(ix.hook) >= cacheLine {
		t.Errorf("Index: size %d, root@0 hook@%d size@%d: root and hook belong on line 0, the counters on line 1",
			unsafe.Sizeof(ix), unsafe.Offsetof(ix.hook), unsafe.Offsetof(ix.size))
	}
	var dn dataNode
	if unsafe.Sizeof(dn)%cacheLine != 0 || unsafe.Offsetof(dn.numKeys) != 2*cacheLine ||
		unsafe.Offsetof(dn.next)+unsafe.Sizeof(dn.next) > 2*cacheLine {
		t.Errorf("dataNode: size %d, next@%d numKeys@%d: headers, model and next belong on lines 0-1, numKeys on line 2",
			unsafe.Sizeof(dn), unsafe.Offsetof(dn.next), unsafe.Offsetof(dn.numKeys))
	}
	keys, err := dataset.Keys(dataset.Lognormal, 50000, 509)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		// Different sizes in between, so that the objects do not all come
		// from the start of a fresh span.
		tree, err := Bulk(dataset.KV(keys[:5000*(i+1)]))
		if err != nil {
			t.Fatal(err)
		}
		if uintptr(unsafe.Pointer(tree))%cacheLine != 0 {
			t.Errorf("Index allocated at %p, not on a cache line", tree)
		}
		for l := tree.leftmostLeaf(); l != nil; l = l.next {
			if uintptr(unsafe.Pointer(l))%cacheLine != 0 {
				t.Fatalf("dataNode allocated at %p, not on a cache line", l)
			}
		}
	}
}
