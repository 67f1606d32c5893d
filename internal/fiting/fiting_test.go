package fiting

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

func TestBuildAllDistributions(t *testing.T) {
	for _, kind := range dataset.Kinds() {
		keys, err := dataset.Keys(kind, 8000, 701)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(dataset.KV(keys), 16, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			v, ok := ix.Get(k)
			if !ok || v != dataset.PayloadFor(k) {
				t.Fatalf("%s: Get(%d) = %d,%v", kind, k, v, ok)
			}
		}
		r := rand.New(rand.NewSource(702))
		for i := 0; i+1 < len(keys); i += 31 {
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
	ix := New(16, 32)
	const n = 15000
	r := rand.New(rand.NewSource(703))
	perm := r.Perm(n)
	for j, i := range perm {
		if ix.Insert(core.Key(i*4), core.Value(i)); ix.Len() != j+1 {
			t.Fatalf("Insert(%d) did not add a key", i*4)
		}
	}
	if ix.Len() != n {
		t.Fatalf("len = %d", ix.Len())
	}
	if ix.Merges == 0 {
		t.Fatal("expected buffer merges")
	}
	for i := 0; i < n; i++ {
		v, ok := ix.Get(core.Key(i * 4))
		if !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = %d,%v", i*4, v, ok)
		}
	}
	if ix.SegmentCount() < 2 {
		t.Fatal("expected multiple segments")
	}
}

func TestUpsertBaseAndBuffer(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Uniform, 1000, 704)
	ix, _ := Build(dataset.KV(keys), 16, 64)
	// Upsert base.
	if ix.Insert(keys[10], 777); ix.Len() != len(keys) {
		t.Fatal("base upsert added a key")
	}
	if v, _ := ix.Get(keys[10]); v != 777 {
		t.Fatal("base upsert lost")
	}
	// Insert fresh key twice.
	fresh := keys[10] + 1
	if fresh == keys[11] {
		t.Skip("no gap")
	}
	if ix.Insert(fresh, 1); ix.Len() != len(keys)+1 {
		t.Fatal("fresh insert did not add a key")
	}
	if ix.Insert(fresh, 2); ix.Len() != len(keys)+1 {
		t.Fatal("buffer upsert added a key")
	}
	if v, _ := ix.Get(fresh); v != 2 {
		t.Fatal("buffer upsert lost")
	}
}

func TestDelete(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Clustered, 4000, 705)
	ix, _ := Build(dataset.KV(keys), 32, 32)
	for i := 0; i < len(keys); i += 2 {
		if !ix.Delete(keys[i]) {
			t.Fatalf("Delete(%d) missed", keys[i])
		}
	}
	if ix.Delete(keys[0]) {
		t.Fatal("double delete")
	}
	if ix.Len() != len(keys)/2 {
		t.Fatalf("len = %d", ix.Len())
	}
	for i, k := range keys {
		_, ok := ix.Get(k)
		if ok != (i%2 == 1) {
			t.Fatalf("Get(%d) = %v", k, ok)
		}
	}
}

func TestRange(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Lognormal, 10000, 706)
	ix, _ := Build(dataset.KV(keys), 32, 32)
	// Mix in buffered inserts.
	r := rand.New(rand.NewSource(707))
	extra := map[core.Key]bool{}
	for len(extra) < 2000 {
		i := r.Intn(len(keys) - 1)
		if keys[i]+1 >= keys[i+1] {
			continue
		}
		k := keys[i] + 1 + core.Key(r.Int63n(int64(keys[i+1]-keys[i]-1)))
		if !extra[k] {
			ix.Insert(k, 9)
			extra[k] = true
		}
	}
	all := make([]core.Key, 0, len(keys)+len(extra))
	all = append(all, keys...)
	for k := range extra {
		all = append(all, k)
	}
	sortKeys(all)
	for _, q := range dataset.Ranges(all, 30, 0.01, 708) {
		want := core.UpperBound(all, q.Hi) - core.LowerBound(all, q.Lo)
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
}

func sortKeys(ks []core.Key) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

func TestMixedWorkloadMatchesMap(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(709))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := New(8, 16)
		ref := map[core.Key]core.Value{}
		for op := 0; op < 4000; op++ {
			k := core.Key(r.Intn(1200))
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

func TestErrorsAndStats(t *testing.T) {
	if _, err := Build([]core.KV{{Key: 4}, {Key: 2}}, 8, 8); err == nil {
		t.Fatal("unsorted accepted")
	}
	ix, err := Build(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Get(5); ok || ix.Delete(5) {
		t.Fatal("empty index")
	}
	if n := ix.Range(0, 100, func(core.Key, core.Value) bool { return true }); n != 0 {
		t.Fatal("empty range")
	}
	ix.Insert(7, 1)
	if v, ok := ix.Get(7); !ok || v != 1 {
		t.Fatal("first insert")
	}
	keys, _ := dataset.Keys(dataset.Uniform, 20000, 710)
	big, _ := Build(dataset.KV(keys), 64, 64)
	st := big.Stats()
	if st.Count != 20000 || st.Models != big.SegmentCount() || st.IndexBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Tighter eps → more segments.
	tight, _ := Build(dataset.KV(keys), 4, 64)
	if tight.SegmentCount() <= big.SegmentCount() {
		t.Fatal("eps does not control segments")
	}
}

func TestEarlyStopRange(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Uniform, 2000, 711)
	ix, _ := Build(dataset.KV(keys), 16, 16)
	count := 0
	ix.Range(0, ^core.Key(0), func(core.Key, core.Value) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop = %d", count)
	}
}
