package pgm

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/segment"
)

func TestStaticAllDistributions(t *testing.T) {
	for _, kind := range dataset.Kinds() {
		for _, eps := range []int{4, 32, 128} {
			keys, err := dataset.Keys(kind, 5000, 201)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(dataset.KV(keys), eps)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				v, ok := ix.Get(k)
				if !ok || v != dataset.PayloadFor(k) {
					t.Fatalf("%s eps=%d: Get(%d) = %d,%v", kind, eps, k, v, ok)
				}
				if lb := ix.LowerBound(k); lb != i {
					t.Fatalf("%s eps=%d: LowerBound(%d) = %d, want %d", kind, eps, k, lb, i)
				}
			}
		}
	}
}

func TestStaticMisses(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Clustered, 8000, 202)
	ix, err := Build(dataset.KV(keys), 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i+1 < len(keys); i += 17 {
		if keys[i]+1 >= keys[i+1] {
			continue
		}
		probe := keys[i] + 1 + core.Key(r.Int63n(int64(keys[i+1]-keys[i]-1)))
		if _, ok := ix.Get(probe); ok {
			t.Fatalf("phantom %d", probe)
		}
		if lb := ix.LowerBound(probe); lb != i+1 {
			t.Fatalf("LowerBound(%d) = %d, want %d", probe, lb, i+1)
		}
	}
	if ix.LowerBound(0) != 0 {
		t.Fatal("LowerBound(0)")
	}
	if ix.LowerBound(^core.Key(0)) != len(keys) {
		t.Fatal("LowerBound(max)")
	}
}

func TestStaticEpsilonTradeoff(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Lognormal, 50000, 203)
	recs := dataset.KV(keys)
	small, _ := Build(recs, 8)
	big, _ := Build(recs, 256)
	if small.SegmentCount() <= big.SegmentCount() {
		t.Fatalf("eps=8 segments %d should exceed eps=256 segments %d",
			small.SegmentCount(), big.SegmentCount())
	}
	if small.Stats().IndexBytes <= big.Stats().IndexBytes {
		t.Fatal("model bytes should shrink with eps")
	}
	if small.Levels() < 1 || big.Levels() < 1 {
		t.Fatal("no levels")
	}
	if small.Epsilon() != 8 {
		t.Fatal("epsilon accessor")
	}
}

func TestStaticRange(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Uniform, 5000, 204)
	ix, _ := Build(dataset.KV(keys), 32)
	for _, q := range dataset.Ranges(keys, 40, 0.01, 205) {
		want := core.UpperBound(keys, q.Hi) - core.LowerBound(keys, q.Lo)
		if got := ix.Range(q.Lo, q.Hi, func(core.Key, core.Value) bool { return true }); got != want {
			t.Fatalf("Range = %d, want %d", got, want)
		}
	}
}

func TestStaticDegenerate(t *testing.T) {
	ix, err := Build(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Get(1); ok || ix.LowerBound(1) != 0 || ix.Len() != 0 {
		t.Fatal("empty index")
	}
	if _, err := Build([]core.KV{{Key: 2}, {Key: 1}}, 8); err == nil {
		t.Fatal("unsorted accepted")
	}
	// Single record and duplicates.
	ix, _ = Build([]core.KV{{Key: 9, Value: 1}}, 4)
	if v, ok := ix.Get(9); !ok || v != 1 {
		t.Fatal("single record")
	}
	var dup []core.KV
	for i := 0; i < 500; i++ {
		dup = append(dup, core.KV{Key: core.Key(i / 5), Value: core.Value(i)})
	}
	ix, _ = Build(dup, 8)
	for i := 0; i < 100; i++ {
		if lb := ix.LowerBound(core.Key(i)); lb != i*5 {
			t.Fatalf("dup LowerBound(%d) = %d, want %d", i, lb, i*5)
		}
	}
}

// Property: static PGM agrees with core.LowerBound on arbitrary probes.
func TestStaticLowerBoundProperty(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Adversarial, 6000, 206)
	ix, err := Build(dataset.KV(keys), 16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(probe core.Key) bool {
		return ix.LowerBound(probe) == core.LowerBound(keys, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 31 {
		for _, delta := range []int64{-1, 0, 1} {
			probe := core.Key(int64(keys[i]) + delta)
			if ix.LowerBound(probe) != core.LowerBound(keys, probe) {
				t.Fatalf("probe %d mismatch", probe)
			}
		}
	}
}

// TestLowerBoundOnDuplicates checks LowerBound against sort.Search for every
// stored key and its neighbours on key columns whose model sees repeated
// float64 values: exact duplicates scattered through the column, one run of
// 10·ε copies (longer than the search window, so the window must widen),
// and distinct keys above 2⁵³ that collide in float64. Only the last keeps
// a per-key array beside the keys: on the others IndexBytes is the PLA
// models alone.
func TestLowerBoundOnDuplicates(t *testing.T) {
	const eps = 16
	rng := rand.New(rand.NewSource(208))
	var scattered, run, collide []core.Key
	for k := core.Key(0); len(scattered) < 20000; k += core.Key(1 + rng.Intn(50)) {
		scattered = append(scattered, k)
		if rng.Intn(100) == 0 {
			scattered = append(scattered, k)
		}
	}
	// The keys after the run keep to the line before it, so one segment
	// spans the run and a probe just above it is predicted inside it.
	for len(run) < 5000 {
		if len(run) == 2000 {
			for j := 0; j < 10*eps; j++ {
				run = append(run, 6000)
			}
		}
		run = append(run, core.Key(3*len(run)))
	}
	for k := core.Key(1<<60 + 12345); len(collide) < 20000; k += core.Key(1 + rng.Intn(600)) {
		collide = append(collide, k)
	}
	for _, tc := range []struct {
		name string
		keys []core.Key
	}{{"scattered", scattered}, {"run", run}, {"collide", collide}} {
		ix, err := BuildKeys(tc.keys, eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, k := range tc.keys {
			for _, probe := range []core.Key{k - 1, k, k + 1} {
				want := sort.Search(len(tc.keys), func(i int) bool { return tc.keys[i] >= probe })
				if got := ix.LowerBound(probe); got != want {
					t.Fatalf("%s: LowerBound(%d) = %d, want %d", tc.name, probe, got, want)
				}
			}
		}
		if st := ix.Stats(); tc.name != "collide" && st.IndexBytes != st.Models*(segment.SegmentBytes+8) {
			t.Fatalf("%s: IndexBytes %d for %d models: a per-key term", tc.name, st.IndexBytes, st.Models)
		}
	}
}

func TestStaticStats(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Uniform, 10000, 207)
	ix, _ := Build(dataset.KV(keys), 64)
	st := ix.Stats()
	if st.Count != 10000 || st.IndexBytes <= 0 || st.Models < 1 || st.Height < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// --------------------------- dynamic --------------------------------------

func TestDynamicInsertGet(t *testing.T) {
	d := NewDynamic(16, 64)
	const n = 5000
	r := rand.New(rand.NewSource(208))
	perm := r.Perm(n)
	for _, i := range perm {
		d.Insert(core.Key(i*2), core.Value(i))
	}
	if d.Len() != n {
		t.Fatalf("len = %d", d.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := d.Get(core.Key(i * 2))
		if !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = %d,%v", i*2, v, ok)
		}
		if _, ok := d.Get(core.Key(i*2 + 1)); ok {
			t.Fatal("phantom")
		}
	}
	if len(d.LevelSizes()) == 0 {
		t.Fatal("expected occupied levels")
	}
}

func TestDynamicUpsert(t *testing.T) {
	d := NewDynamic(8, 16)
	for i := 0; i < 200; i++ {
		d.Insert(7, core.Value(i)) // same key repeatedly
		d.Insert(core.Key(1000+i), 1)
	}
	if v, ok := d.Get(7); !ok || v != 199 {
		t.Fatalf("upsert Get = %d,%v", v, ok)
	}
	if d.Len() != 201 {
		t.Fatalf("len = %d", d.Len())
	}
}

func TestDynamicDelete(t *testing.T) {
	d := NewDynamic(16, 32)
	const n = 2000
	for i := 0; i < n; i++ {
		d.Insert(core.Key(i), core.Value(i))
	}
	for i := 0; i < n; i += 2 {
		if !d.Delete(core.Key(i)) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if d.Delete(core.Key(0)) {
		t.Fatal("double delete")
	}
	if d.Delete(core.Key(5 * n)) {
		t.Fatal("delete absent")
	}
	if d.Len() != n/2 {
		t.Fatalf("len = %d", d.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := d.Get(core.Key(i))
		if ok != (i%2 == 1) {
			t.Fatalf("Get(%d) = %v", i, ok)
		}
	}
	// Re-insert deleted keys.
	for i := 0; i < n; i += 2 {
		d.Insert(core.Key(i), core.Value(i+7))
	}
	if d.Len() != n {
		t.Fatalf("len after reinsert = %d", d.Len())
	}
	if v, ok := d.Get(0); !ok || v != 7 {
		t.Fatalf("reinserted Get = %d,%v", v, ok)
	}
}

func TestDynamicRange(t *testing.T) {
	d := NewDynamic(16, 32)
	for i := 0; i < 1000; i++ {
		d.Insert(core.Key(i*10), core.Value(i))
	}
	// Delete some inside the range.
	d.Delete(150)
	d.Delete(200)
	var got []core.Key
	n := d.Range(95, 305, func(k core.Key, v core.Value) bool {
		got = append(got, k)
		return true
	})
	want := []core.Key{100, 110, 120, 130, 140, 160, 170, 180, 190, 210, 220, 230, 240, 250, 260, 270, 280, 290, 300}
	if n != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	count := 0
	d.Range(0, 1<<62, func(core.Key, core.Value) bool { count++; return count < 4 })
	if count != 4 {
		t.Fatalf("early stop = %d", count)
	}
}

// Property: dynamic PGM agrees with a reference map under random ops.
func TestDynamicMatchesMapProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(209))}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDynamic(8, 16+r.Intn(48))
		ref := map[core.Key]core.Value{}
		for op := 0; op < 3000; op++ {
			k := core.Key(r.Intn(400))
			switch r.Intn(3) {
			case 0:
				v := core.Value(r.Uint64())
				d.Insert(k, v)
				ref[k] = v
			case 1:
				got := d.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			case 2:
				v, ok := d.Get(k)
				wv, wok := ref[k]
				if ok != wok || (ok && v != wv) {
					return false
				}
			}
			if d.Len() != len(ref) {
				return false
			}
		}
		// Full range must equal sorted ref.
		seen := 0
		okAll := true
		prev := core.Key(0)
		first := true
		d.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
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

func TestDynamicStats(t *testing.T) {
	d := NewDynamic(0, 0) // defaults
	for i := 0; i < 3000; i++ {
		d.Insert(core.Key(i*7), 1)
	}
	st := d.Stats()
	if st.Count != 3000 || st.IndexBytes <= 0 || st.Models < 1 {
		t.Fatalf("stats = %+v", st)
	}
}
