package sst

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// genRun builds n live records (even keys, deterministic values) and nd
// tombstones (distinct even keys not among the live ones).
func genRun(t *testing.T, n, nd int, seed int64) *FileData {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	seen := make(map[core.Key]bool, n+nd)
	keys := make([]core.Key, 0, n+nd)
	for len(keys) < n+nd {
		k := core.Key(r.Uint64()) &^ 1 // even keys: odd keys are guaranteed absent
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sortKeys(keys)
	d := &FileData{Seq: uint64(seed)}
	for i, k := range keys {
		if i%(n+nd)%7 == 3 && len(d.Dead) < nd {
			d.Dead = append(d.Dead, k)
		} else if len(d.Live) < n {
			d.Live = append(d.Live, core.KV{Key: k, Value: core.Value(k ^ 0xabc)})
		} else {
			d.Dead = append(d.Dead, k)
		}
	}
	return d
}

func sortKeys(ks []core.Key) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j-1] > ks[j]; j-- {
			ks[j-1], ks[j] = ks[j], ks[j-1]
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, tc := range []struct{ n, nd int }{
		{1, 0}, {0, 1}, {1, 1},
		{RecsPerPage, 0}, {RecsPerPage + 1, 0}, {RecsPerPage * 3, RecsPerPage},
		{1000, 37}, {5000, 0},
	} {
		d := genRun(t, tc.n, tc.nd, int64(tc.n*1000+tc.nd))
		b, err := EncodeFile(d)
		if err != nil {
			t.Fatalf("encode n=%d nd=%d: %v", tc.n, tc.nd, err)
		}
		got, err := DecodeFile(b)
		if err != nil {
			t.Fatalf("decode n=%d nd=%d: %v", tc.n, tc.nd, err)
		}
		if len(got.Live) != len(d.Live) || len(got.Dead) != len(d.Dead) || got.Seq != d.Seq {
			t.Fatalf("roundtrip mismatch: %d/%d/%d vs %d/%d/%d",
				len(got.Live), len(got.Dead), got.Seq, len(d.Live), len(d.Dead), d.Seq)
		}
		for i := range d.Live {
			if got.Live[i] != d.Live[i] {
				t.Fatalf("live[%d] = %+v, want %+v", i, got.Live[i], d.Live[i])
			}
		}
		for i := range d.Dead {
			if got.Dead[i] != d.Dead[i] {
				t.Fatalf("dead[%d] = %d, want %d", i, got.Dead[i], d.Dead[i])
			}
		}
		// Canonical: re-encode reproduces the bytes exactly.
		b2, err := EncodeFile(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(b2) != string(b) {
			t.Fatalf("re-encode not byte-exact (n=%d nd=%d)", tc.n, tc.nd)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	cases := []*FileData{
		{},
		{Live: []core.KV{{Key: 2}, {Key: 2}}},
		{Live: []core.KV{{Key: 3}, {Key: 2}}},
		{Dead: []core.Key{5, 5}},
		{Live: []core.KV{{Key: 7}}, Dead: []core.Key{7}},
	}
	for i, d := range cases {
		if _, err := EncodeFile(d); err == nil {
			t.Errorf("case %d: EncodeFile accepted invalid data", i)
		}
	}
}

func TestReaderGet(t *testing.T) {
	d := genRun(t, 3000, 200, 42)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.lix")
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	r, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, kv := range d.Live {
		v, st, err := r.Get(kv.Key)
		if err != nil {
			t.Fatal(err)
		}
		if st != Found || v != kv.Value {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, Found)", kv.Key, v, st, kv.Value)
		}
	}
	for _, k := range d.Dead {
		_, st, err := r.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if st != Deleted {
			t.Fatalf("Get(%d) = %v, want Deleted", k, st)
		}
	}
	// Odd keys were never generated: all absent.
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		k := core.Key(rng.Uint64()) | 1
		_, st, err := r.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if st != Absent {
			t.Fatalf("Get(absent %d) = %v, want Absent", k, st)
		}
	}
	c := r.Counters()
	if c.Hits != uint64(len(d.Live)) || c.TombHits != uint64(len(d.Dead)) {
		t.Fatalf("counters: hits=%d tombHits=%d, want %d/%d", c.Hits, c.TombHits, len(d.Live), len(d.Dead))
	}
	if c.Probes != c.RangeSkips+c.FilterSkips+c.FalsePositives+c.Hits+c.TombHits {
		t.Fatalf("counters don't partition probes: %+v", c)
	}
}

// TestFilterSkipRate pins the structural promise of the per-run learned
// filter: point lookups of absent keys inside the run's key range must
// skip the run (no page read) at least 90% of the time.
func TestFilterSkipRate(t *testing.T) {
	d := genRun(t, 20000, 0, 7)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.lix")
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	r, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	lo, hi := d.MinKey(), d.MaxKey()
	rng := rand.New(rand.NewSource(8))
	probes := 0
	for probes < 20000 {
		k := (lo + core.Key(rng.Uint64())%(hi-lo)) | 1 // odd = absent, in range
		if _, st, err := r.Get(k); err != nil {
			t.Fatal(err)
		} else if st != Absent {
			t.Fatalf("Get(absent %d) = %v", k, st)
		}
		probes++
	}
	c := r.Counters()
	consulted := c.Probes - c.RangeSkips
	rate := float64(c.FilterSkips) / float64(consulted)
	if rate < 0.9 {
		t.Fatalf("filter skipped %.1f%% of absent-key probes (skips=%d consulted=%d), want >= 90%%",
			100*rate, c.FilterSkips, consulted)
	}
	t.Logf("filter skip rate on absent keys: %.2f%% (false positives %d, filter %d bits)",
		100*rate, c.FalsePositives, r.Stats().FilterBits)
}

func TestTiersNewestWins(t *testing.T) {
	dir := t.TempDir()
	// Old run: keys 2,4,6,...,200 with value key*10.
	old := &FileData{Seq: 1}
	for k := core.Key(2); k <= 200; k += 2 {
		old.Live = append(old.Live, core.KV{Key: k, Value: core.Value(k * 10)})
	}
	// New run: overwrites 2 and 4, tombstones 6, adds 1001.
	nw := &FileData{
		Seq:  2,
		Live: []core.KV{{Key: 2, Value: 999}, {Key: 4, Value: 998}, {Key: 1001, Value: 1}},
		Dead: []core.Key{6},
	}
	oldPath := filepath.Join(dir, "old.lix")
	newPath := filepath.Join(dir, "new.lix")
	if err := WriteFile(oldPath, old); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(newPath, nw); err != nil {
		t.Fatal(err)
	}
	ro, do, err := Open(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rn, dn, err := Open(newPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()

	tiers := NewTiers([]*Reader{rn, ro})
	checks := []struct {
		k    core.Key
		v    core.Value
		want bool
	}{
		{2, 999, true}, {4, 998, true}, {6, 0, false}, {8, 80, true},
		{200, 2000, true}, {1001, 1, true}, {7, 0, false}, {5000, 0, false},
	}
	for _, c := range checks {
		v, ok, err := tiers.Get(c.k)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want || (ok && v != c.v) {
			t.Fatalf("tiers.Get(%d) = (%d, %v), want (%d, %v)", c.k, v, ok, c.v, c.want)
		}
	}

	// Full merge (dropDead): tombstoned key gone, newest values retained.
	merged := MergeData([]*FileData{dn, do}, true)
	if len(merged.Dead) != 0 {
		t.Fatalf("full merge kept %d tombstones", len(merged.Dead))
	}
	if merged.Seq != 2 {
		t.Fatalf("merged seq = %d, want 2", merged.Seq)
	}
	want := len(old.Live) - 1 + 1 // 6 deleted, 1001 added (2 and 4 overwritten)
	if len(merged.Live) != want {
		t.Fatalf("merged live = %d, want %d", len(merged.Live), want)
	}
	for i := 1; i < len(merged.Live); i++ {
		if merged.Live[i-1].Key >= merged.Live[i].Key {
			t.Fatal("merged output not sorted")
		}
	}
	byKey := make(map[core.Key]core.Value, len(merged.Live))
	for _, kv := range merged.Live {
		byKey[kv.Key] = kv.Value
	}
	if byKey[2] != 999 || byKey[4] != 998 {
		t.Fatal("merge did not prefer newest values")
	}
	if _, ok := byKey[6]; ok {
		t.Fatal("merge resurrected a tombstoned key")
	}

	// Partial merge (keep tombstones): the tombstone must survive.
	kept := MergeData([]*FileData{dn}, false)
	if len(kept.Dead) != 1 || kept.Dead[0] != 6 {
		t.Fatalf("partial merge tombstones = %v, want [6]", kept.Dead)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	d := genRun(t, 1500, 50, 99)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.lix")
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at page and sub-page granularity.
	for _, cut := range []int{len(b) - PageSize, len(b) - 100, PageSize, PageSize / 2, 0} {
		p := filepath.Join(dir, "trunc.lix")
		if err := os.WriteFile(p, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if r, _, err := Open(p); err == nil {
			r.Close()
			t.Fatalf("Open accepted a run truncated to %d bytes", cut)
		}
	}
	// A bit flip anywhere must be rejected at Open.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		mut := append([]byte(nil), b...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << uint(rng.Intn(8))
		p := filepath.Join(dir, "flip.lix")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, _, err := Open(p); err == nil {
			r.Close()
			t.Fatalf("Open accepted a run with bit %d of byte %d flipped", i, pos)
		}
	}
}

// mergeByMap is the map-and-sort merge MergeData replaced, kept as its
// oracle: apply the runs oldest to newest into a map of every key, then
// sort what is left.
func mergeByMap(newestFirst []*FileData, dropDead bool) *FileData {
	type entry struct {
		val  core.Value
		dead bool
	}
	m := make(map[core.Key]entry)
	out := &FileData{}
	for i := len(newestFirst) - 1; i >= 0; i-- {
		d := newestFirst[i]
		if d.Seq > out.Seq {
			out.Seq = d.Seq
		}
		for _, kv := range d.Live {
			m[kv.Key] = entry{val: kv.Value}
		}
		for _, k := range d.Dead {
			m[k] = entry{dead: true}
		}
	}
	for k, e := range m {
		if e.dead {
			if !dropDead {
				out.Dead = append(out.Dead, k)
			}
			continue
		}
		out.Live = append(out.Live, core.KV{Key: k, Value: e.val})
	}
	sort.Slice(out.Live, func(i, j int) bool { return out.Live[i].Key < out.Live[j].Key })
	sort.Slice(out.Dead, func(i, j int) bool { return out.Dead[i] < out.Dead[j] })
	return out
}

// TestMergeDataMatchesMapOracle merges random stacks of 1-6 runs whose
// live and dead keys overlap heavily (a small key space, so most keys are
// in several runs, live in some and dead in others) and requires the
// linear merge to equal the map-and-sort one, tombstones kept and dropped.
func TestMergeDataMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		runs := make([]*FileData, 1+rng.Intn(6))
		space := 1 + rng.Intn(200)
		for i := range runs {
			d := &FileData{Seq: uint64(rng.Intn(1000))}
			for k := 0; k < space; k++ {
				switch rng.Intn(4) {
				case 0:
					d.Live = append(d.Live, core.KV{Key: core.Key(k), Value: core.Value(rng.Uint64())})
				case 1:
					d.Dead = append(d.Dead, core.Key(k))
				}
			}
			runs[i] = d // may be empty: the WAL tail of a quiet store is
		}
		for _, dropDead := range []bool{false, true} {
			got, want := MergeData(runs, dropDead), mergeByMap(runs, dropDead)
			if len(got.Live) == 0 {
				got.Live = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%d runs, dropDead=%v): linear merge\n%+v\nmap merge\n%+v", trial, len(runs), dropDead, got, want)
			}
			if len(got.Live)+len(got.Dead) > 0 {
				if err := validate(got); err != nil {
					t.Fatalf("trial %d: merged run is not writable: %v", trial, err)
				}
			}
		}
	}
}

// TestOpenTrainsLazily: Open keeps a summary only; the first Get inside the
// run's range builds the models and opens the file, and a run that has
// gone missing by then, or a reader closed before it was ever read, is an
// error from Get rather than a panic.
func TestOpenTrainsLazily(t *testing.T) {
	d := genRun(t, 30000, 100, 5)
	path := filepath.Join(t.TempDir(), "run.lix")
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	r, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.FilterBits != 0 || st.Segments != 0 || st.Fences != 0 || r.MeasuredFPR() != 0 {
		t.Fatalf("Open trained something: %+v", st)
	}
	if _, st, err := r.Get(d.MaxKey() | 1); err != nil || st != Absent {
		t.Fatalf("Get outside the range = %v, %v", st, err)
	}
	if st := r.Stats(); st.FilterBits != 0 {
		t.Fatalf("a range skip trained the filter: %+v", st)
	}
	if v, st, err := r.Get(d.Live[0].Key); err != nil || st != Found || v != d.Live[0].Value {
		t.Fatalf("first Get = (%d, %v, %v)", v, st, err)
	}
	if st := r.Stats(); st.FilterBits == 0 || st.Segments == 0 || st.Fences != pagesFor(len(d.Live)) {
		t.Fatalf("first Get did not train: %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	gone, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := gone.Get(d.Live[0].Key); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Get on a removed run = %v, want a not-exist error", err)
	}
	if err := gone.Close(); err != nil {
		t.Fatalf("Close of a never-read reader: %v", err)
	}
	if _, _, err := gone.Get(d.Live[0].Key); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Get after Close = %v, want a closed error", err)
	}
}

// TestFirstGetFromManyGoroutines: the first lookups of a run may come from
// several goroutines at once, beside Stats and Counters readers; the models
// are built once and everyone gets the right answer.
func TestFirstGetFromManyGoroutines(t *testing.T) {
	d := genRun(t, 20000, 50, 9)
	path := filepath.Join(t.TempDir(), "run.lix")
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	r, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(d.Live); i += 97 {
				if v, st, err := r.Get(d.Live[i].Key); err != nil || st != Found || v != d.Live[i].Value {
					t.Errorf("Get(%d) = (%d, %v, %v)", d.Live[i].Key, v, st, err)
					return
				}
				_, _ = r.Stats(), r.Counters()
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.FilterBits == 0 || st.Fences != pagesFor(len(d.Live)) {
		t.Fatalf("untrained after concurrent lookups: %+v", st)
	}
}

// trainedLookup writes keys as one run of live records, trains it with a
// Get and returns its lookup state.
func trainedLookup(tb testing.TB, keys []core.Key) *lookup {
	tb.Helper()
	d := &FileData{Live: make([]core.KV, len(keys))}
	for i, k := range keys {
		d.Live[i] = core.KV{Key: k, Value: core.Value(i)}
	}
	path := filepath.Join(tb.TempDir(), "run.lix")
	if err := WriteFile(path, d); err != nil {
		tb.Fatal(err)
	}
	r, _, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	if _, st, err := r.Get(keys[0]); err != nil || st != Found {
		tb.Fatalf("first Get = %v, %v", st, err)
	}
	return r.look.Load()
}

// TestPageForModelWindowHolds: the fence model is what pageFor searches
// by, not an ornament the binary-search fallback hides. Over runs large
// enough to get a model, on three key distributions, every fence, every
// fence ± 1 and a key between each pair of fences must have its lower
// bound inside the window the model predicts (clamped to the array as
// core.SearchRange clamps it), so the fallback is never taken, and
// pageFor must pick the page core.LowerBound picks.
func TestPageForModelWindowHolds(t *testing.T) {
	n := 200 * RecsPerPage
	for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Lognormal, dataset.Clustered} {
		t.Run(string(kind), func(t *testing.T) {
			keys, err := dataset.Keys(kind, n, 11)
			if err != nil {
				t.Fatal(err)
			}
			lk := trainedLookup(t, keys)
			if len(lk.fences) < minModelFences || lk.model == nil {
				t.Fatalf("%d fences, %d segments: the run got no model", len(lk.fences), len(lk.model))
			}
			fs := lk.fences
			var probes []core.Key
			for i, f := range fs {
				probes = append(probes, f-1, f, f+1)
				if i+1 < len(fs) {
					probes = append(probes, f+(fs[i+1]-f)/2)
				}
			}
			for _, k := range probes {
				p := lk.predict(k)
				lo, hi := max(p-fenceEps-1, 0), min(p+fenceEps+2, len(fs))
				lo = min(lo, hi)
				i := core.LowerBound(fs, k)
				if i < lo || i > hi {
					t.Fatalf("key %d: lower bound %d outside the model's window [%d, %d] (prediction %d)", k, i, lo, hi, p)
				}
				want := max(i-1, 0)
				if i < len(fs) && fs[i] == k {
					want = i
				}
				if got := lk.pageFor(k); got != want {
					t.Fatalf("pageFor(%d) = %d, want %d", k, got, want)
				}
			}
			t.Logf("%d fences, %d segments, %d probes", len(fs), len(lk.model), len(probes))
		})
	}
}
