package skiplist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lix-go/lix/internal/core"
)

func TestEmpty(t *testing.T) {
	l := New(0)
	if l.Len() != 0 {
		t.Fatal("empty len")
	}
	if _, ok := l.Get(1); ok {
		t.Fatal("Get on empty")
	}
	if l.Delete(1) {
		t.Fatal("Delete on empty")
	}
}

func TestInsertGetDelete(t *testing.T) {
	l := New(1)
	const n = 5000
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for j, i := range perm {
		if l.Insert(core.Key(i*3), core.Value(i)); l.Len() != j+1 {
			t.Fatal("insert did not add a key")
		}
	}
	if l.Len() != n {
		t.Fatalf("len = %d", l.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := l.Get(core.Key(i * 3))
		if !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = %d,%v", i*3, v, ok)
		}
		if _, ok := l.Get(core.Key(i*3 + 1)); ok {
			t.Fatal("phantom key")
		}
	}
	// Upsert.
	if l.Insert(0, 99); l.Len() != n {
		t.Fatal("upsert added a key")
	}
	if v, _ := l.Get(0); v != 99 {
		t.Fatal("upsert did not overwrite")
	}
	// Delete half.
	for i := 0; i < n; i += 2 {
		if !l.Delete(core.Key(i * 3)) {
			t.Fatalf("Delete(%d) missed", i*3)
		}
	}
	if l.Len() != n/2 {
		t.Fatalf("len after deletes = %d", l.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := l.Get(core.Key(i * 3))
		if ok != (i%2 == 1) {
			t.Fatalf("Get(%d) after delete = %v", i*3, ok)
		}
	}
}

func TestRange(t *testing.T) {
	l := New(7)
	for i := 0; i < 100; i++ {
		l.Insert(core.Key(i*10), core.Value(i))
	}
	var got []core.Key
	n := l.Range(25, 85, func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	want := []core.Key{30, 40, 50, 60, 70, 80}
	if n != len(want) {
		t.Fatalf("range count = %d, got %v", n, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %d", i, got[i])
		}
	}
	count := 0
	l.Range(0, 1000, func(core.Key, core.Value) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestMatchesMapProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := New(uint64(seed) | 1)
		ref := map[core.Key]core.Value{}
		for op := 0; op < 2000; op++ {
			k := core.Key(r.Intn(300))
			switch r.Intn(3) {
			case 0:
				v := core.Value(r.Uint64())
				l.Insert(k, v)
				ref[k] = v
			case 1:
				got := l.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			case 2:
				v, ok := l.Get(k)
				wv, wok := ref[k]
				if ok != wok || (ok && v != wv) {
					return false
				}
			}
		}
		return l.Len() == len(ref)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	l := New(3)
	for i := 0; i < 1000; i++ {
		l.Insert(core.Key(i), 0)
	}
	st := l.Stats()
	if st.Count != 1000 || st.IndexBytes <= 0 || st.Height < 2 {
		t.Fatalf("stats = %+v", st)
	}
}
