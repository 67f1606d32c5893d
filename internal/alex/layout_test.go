package alex

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// bitmapNode returns a node of exactly capacity slots whose occupied slots
// are those for which occupied(i) is true; its keys play no part in a gap
// search and stay zero. It is a literal, not newDataNode, which would round
// the capacity up to its size class and move the word edges under test.
func bitmapNode(capacity int, occupied func(i int) bool) *dataNode {
	dn := &dataNode{
		slots: make([]core.KV, capacity),
		occ:   make([]uint64, (capacity+63)/64),
	}
	for i := 0; i < capacity; i++ {
		if occupied(i) {
			dn.occupy(i)
		}
	}
	return dn
}

// TestGapSearchesMatchScan holds gapFrom and gapBefore to a slot-by-slot
// scan on every start slot, at capacities on both sides of a word boundary:
// fully occupied words, a free slot only in the last partial word, and a
// full node, where the clear bits past the last slot must not read as free.
func TestGapSearchesMatchScan(t *testing.T) {
	r := rand.New(rand.NewSource(510))
	for _, capacity := range []int{1, 63, 64, 65, 127, 128, 129} {
		type pattern struct {
			name     string
			occupied func(i int) bool
		}
		random := make([]bool, capacity)
		for i := range random {
			random[i] = r.Intn(4) != 0
		}
		patterns := []pattern{
			{"empty", func(int) bool { return false }},
			{"full", func(int) bool { return true }},
			{"alternating", func(i int) bool { return i%2 == 0 }},
			{"random", func(i int) bool { return random[i] }},
		}
		// One free slot anywhere, the last one included: with capacity 65
		// or 129 it is alone in a partial word behind full ones.
		for p := 0; p < capacity; p++ {
			patterns = append(patterns, pattern{fmt.Sprintf("only %d free", p), func(i int) bool { return i != p }})
		}
		for _, pat := range patterns {
			name, occupied := pat.name, pat.occupied
			dn := bitmapNode(capacity, occupied)
			for s := 0; s <= capacity; s++ {
				right, left := -1, -1
				for i := s; i < capacity; i++ {
					if !occupied(i) {
						right = i
						break
					}
				}
				for i := s - 1; i >= 0; i-- {
					if !occupied(i) {
						left = i
						break
					}
				}
				if got := dn.gapFrom(s); got != right {
					t.Fatalf("capacity %d, %s: gapFrom(%d) = %d, want %d", capacity, name, s, got, right)
				}
				if got := dn.gapBefore(s); got != left {
					t.Fatalf("capacity %d, %s: gapBefore(%d) = %d, want %d", capacity, name, s, got, left)
				}
			}
		}
	}
}

// TestCheckInvariantsRejectsBadBitmap corrupts a leaf's bitmap each way the
// layout forbids and expects CheckInvariants to name it.
func TestCheckInvariantsRejectsBadBitmap(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Uniform, 100, 511)
	for _, c := range []struct {
		name    string
		corrupt func(dn *dataNode)
	}{
		{"a word too many", func(dn *dataNode) { dn.occ = append(dn.occ, 0) }},
		{"a word too few", func(dn *dataNode) { dn.occ = dn.occ[:len(dn.occ)-1] }},
		{"a bit past the last slot", func(dn *dataNode) { dn.occ[len(dn.occ)-1] |= 1 << 63 }},
	} {
		ix, err := Bulk(dataset.KV(keys))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("before corrupting: %v", err)
		}
		dn := ix.root.(*dataNode)
		if len(dn.slots)%64 == 0 {
			t.Fatalf("%d slots fill the last word: no bit past the last slot to set", len(dn.slots))
		}
		c.corrupt(dn)
		if err := ix.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "bitmap") {
			t.Errorf("%s: CheckInvariants = %v, want a bitmap error", c.name, err)
		}
	}
}

// TestStatsIsTheLayout holds Stats to the sum of the node structs and the
// capacities of their arrays, walked here along the leaf chain, on a tree
// built by Bulk and grown by inserts past expands and splits; and that sum
// to within 10 % of the heap the build and inserts left live.
func TestStatsIsTheLayout(t *testing.T) {
	keys, _ := dataset.Keys(dataset.Lognormal, 200_000, 512)
	recs := dataset.KV(keys)
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	ix, err := Bulk(recs)
	if err != nil {
		t.Fatal(err)
	}
	// A key after every other one expands leaves; three after each key of
	// the first leaf split it.
	for i := 0; i+1 < len(keys); i++ {
		n := 1 - i%2
		if i < bulkLeafKeys {
			n = 3
		}
		for d := core.Key(1); d <= core.Key(n) && keys[i]+d < keys[i+1]; d++ {
			ix.Insert(keys[i]+d, 1)
		}
	}
	if ix.Expands == 0 || ix.Splits == 0 {
		t.Fatalf("the inserts made %d expands and %d splits, want both", ix.Expands, ix.Splits)
	}
	grew := live() - before
	runtime.KeepAlive(keys)
	runtime.KeepAlive(recs)

	want := 0
	for l := ix.leftmostLeaf(); l != nil; l = l.next {
		want += int(unsafe.Sizeof(dataNode{})) + 16*cap(l.slots) + 8*cap(l.occ)
	}
	var inners func(n node)
	inners = func(n node) {
		if in, ok := n.(*inner); ok {
			want += int(unsafe.Sizeof(inner{})) + 8*cap(in.firstKeys) + 16*cap(in.children)
			for _, c := range in.children {
				inners(c)
			}
		}
	}
	inners(ix.root)
	st := ix.Stats()
	if got := st.IndexBytes + st.DataBytes; got != want {
		t.Errorf("Stats says %d + %d = %d B, the nodes and their arrays take %d", st.IndexBytes, st.DataBytes, got, want)
	}
	if said := float64(want); said < 0.9*float64(grew) || said > 1.1*float64(grew) {
		t.Errorf("the nodes and their arrays take %d B, the heap grew by %d B", want, grew)
	}
	t.Logf("%.2f B/key on the heap, Stats %.2f (%d expands, %d splits)", float64(grew)/float64(ix.Len()),
		float64(want)/float64(ix.Len()), ix.Expands, ix.Splits)
}

// slotStats returns the slots per record of ix's leaves and the mean
// distance between a record's slot and the slot its leaf's model predicts
// for its key, where a get's exponential search starts.
func slotStats(ix *Index) (slotsPerKey, meanError float64) {
	slots, keys, off := 0, 0, 0
	for l := ix.leftmostLeaf(); l != nil; l = l.next {
		slots += len(l.slots)
		for w, word := range l.occ {
			for ; word != 0; word &= word - 1 {
				s := w<<6 + bits.TrailingZeros64(word)
				d := s - l.predict(l.slots[s].Key)
				off += max(d, -d)
				keys++
			}
		}
	}
	return float64(slots) / float64(keys), float64(off) / float64(keys)
}

// TestBulkLoadCeilings builds one shard of the repo benchmark's ALEX
// preload: 525 k keys with its lognormal gaps, 2 735 in most leaves, at a
// fixed seed. Every leaf must hold its whole slot array, a size class the
// allocator hands out as is, at a density in (minDensity, initDensity].
// Two counted ceilings, exact at the seed, stand behind that: Stats bytes
// per key (24.25), which a bulk load back at minDensity (27.28) fails, and
// the mean |slot - prediction| (5.70), which slot arrays left at the
// asked-for capacity (6.71) fail.
func TestBulkLoadCeilings(t *testing.T) {
	rng := rand.New(rand.NewSource(513))
	keys := make([]core.Key, 525_000)
	k := core.Key(0)
	for i := range keys {
		k += 1 + core.Key(math.Exp(rng.NormFloat64()*1.5+4))
		keys[i] = k
	}
	ix, err := Bulk(dataset.KV(keys))
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for l := ix.leftmostLeaf(); l != nil; l = l.next {
		leaves++
		if len(l.slots) != cap(l.slots) {
			t.Fatalf("leaf %d: %d slots of an array of %d", leaves, len(l.slots), cap(l.slots))
		}
		if c := cap(slices.Grow([]core.KV(nil), len(l.slots))); c != len(l.slots) {
			t.Fatalf("leaf %d: %d slots, whose allocation holds %d", leaves, len(l.slots), c)
		}
		if d := float64(l.numKeys) / float64(len(l.slots)); d <= minDensity || d > initDensity {
			t.Fatalf("leaf %d: %d keys in %d slots, density %.3f, want (%.1f, %.1f]",
				leaves, l.numKeys, len(l.slots), d, minDensity, initDensity)
		}
	}
	st := ix.Stats()
	perKey := float64(st.IndexBytes+st.DataBytes) / float64(ix.Len())
	slotsPerKey, meanError := slotStats(ix)
	t.Logf("%d leaves: Stats %.3f B/key, %.4f slots/key, mean |slot - prediction| %.4f",
		leaves, perKey, slotsPerKey, meanError)
	const bytesCeiling, errorCeiling = 25.0, 6.2
	if perKey > bytesCeiling {
		t.Errorf("Stats says %.3f B/key, ceiling %.2f", perKey, bytesCeiling)
	}
	if meanError > errorCeiling {
		t.Errorf("mean |slot - prediction| %.4f, ceiling %.2f", meanError, errorCeiling)
	}
}

// FuzzALEXOps decodes a byte stream into inserts, deletes, gets, range
// scans, and runs of inserts or deletes over the keys 0 to 1<<14-1; it
// checks every answer against a map and the tree's invariants after every
// operation. A leaf grown from New splits at 0.8 of maxDataSlots records,
// which the lattice holds, so runs of inserts take leaves through every
// expand and into splits. A second tree takes the same inserts, deletes and
// gets through Apply, one batch per stretch between scans and one per run,
// and must give the answers of the point ops, its invariants and their
// contents.
func FuzzALEXOps(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 6, 0, 2, 5, 0, 3, 6, 0, 3, 5, 0, 4 | 8<<3, 0, 0})
	// The whole lattice in four runs (the root leaf expands to
	// maxDataSlots, then splits), a run deleted, a scan across its edge, a
	// get and a reinsert inside it.
	f.Add([]byte{5, 0, 0x00, 5, 0, 0x10, 5, 0, 0x20, 5, 0, 0x30, 6, 0, 0x08, 4 | 31<<3, 0xc0, 0x07, 3, 0, 0x09, 0, 0, 0x09})
	// A run, then keys below it, which shift records right.
	f.Add([]byte{5, 0, 0x20, 0, 100, 0, 0, 50, 0, 0, 10, 0, 0, 200, 0, 0, 0, 0x30, 3, 10, 0, 4 | 31<<3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			lattice = 1 << 14
			run     = 1 << 12
		)
		ix, bx := New(), New()
		ref := map[core.Key]core.Value{}
		// batch is bx's next Apply; want[i] the point ops' answer to a get
		// or delete in it.
		type answer struct {
			v  core.Value
			ok bool
		}
		var (
			batch []core.Op
			want  []answer
		)
		flush := func() {
			vals, oks := make([]core.Value, len(batch)), make([]bool, len(batch))
			bx.Apply(batch, vals, oks, nil)
			for i, op := range batch {
				if op.Kind != core.OpPut && (oks[i] != want[i].ok || op.Kind == core.OpGet && vals[i] != want[i].v) {
					t.Fatalf("op %d of %d through Apply: %v gave %d,%v, the point op %d,%v",
						i, len(batch), op, vals[i], oks[i], want[i].v, want[i].ok)
				}
			}
			if err := bx.CheckInvariants(); err != nil {
				t.Fatalf("after an Apply of %d: %v", len(batch), err)
			}
			if bx.Len() != len(ref) {
				t.Fatalf("Len = %d after an Apply of %d, want %d", bx.Len(), len(batch), len(ref))
			}
			batch, want = batch[:0], want[:0]
		}
		add := func(op core.Op, v core.Value, ok bool) {
			batch = append(batch, op)
			want = append(want, answer{v, ok})
		}
		insert := func(k core.Key, v core.Value) {
			ref[k] = v
			if ix.Insert(k, v); ix.Len() != len(ref) {
				t.Fatalf("Insert(%d): Len = %d, want %d", k, ix.Len(), len(ref))
			}
			add(core.Op{Kind: core.OpPut, Key: k, Val: v}, 0, false)
		}
		del := func(k core.Key) {
			_, had := ref[k]
			if got := ix.Delete(k); got != had {
				t.Fatalf("Delete(%d) = %v, want %v", k, got, had)
			}
			delete(ref, k)
			add(core.Op{Kind: core.OpDel, Key: k}, 0, had)
		}
		// At most 64 operations, so at most 64 runs of 4096: an append
		// into a leaf can shift most of it, and runs are mostly appends.
		for ops := 0; len(data) >= 3 && ops < 64; ops++ {
			op := data[0]
			k := core.Key(int(data[1])|int(data[2])<<8) % lattice
			data = data[3:]
			v := core.Value(op)<<32 | core.Value(k)
			switch op & 7 {
			case 0, 1, 7:
				insert(k, v)
			case 2:
				del(k)
			case 3:
				got, ok := ix.Get(k)
				if want, had := ref[k]; ok != had || got != want {
					t.Fatalf("Get(%d) = %d,%v, want %d,%v", k, got, ok, want, had)
				}
				add(core.Op{Kind: core.OpGet, Key: k}, got, ok)
			case 4:
				flush()
				hi := k + core.Key(op>>3)*64
				var want, got []core.Key
				for x := k; x <= hi && x < lattice; x++ {
					if _, ok := ref[x]; ok {
						want = append(want, x)
					}
				}
				n := ix.Range(k, hi, func(x core.Key, val core.Value) bool {
					if val != ref[x] {
						t.Fatalf("Range(%d, %d) gave %d for key %d, want %d", k, hi, val, x, ref[x])
					}
					got = append(got, x)
					return true
				})
				if n != len(got) || !slices.Equal(got, want) {
					t.Fatalf("Range(%d, %d) = %d records %v, want %v", k, hi, n, got, want)
				}
			case 5:
				flush()
				for i := core.Key(0); i < run; i++ {
					insert((k+i)%lattice, v)
				}
				flush()
			case 6:
				flush()
				for i := core.Key(0); i < run; i++ {
					del((k + i) % lattice)
				}
				flush()
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if ix.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d", ix.Len(), len(ref))
			}
		}
		flush()
		n := bx.Range(0, lattice, func(x core.Key, val core.Value) bool {
			if want, ok := ref[x]; !ok || val != want {
				t.Fatalf("after the Applies key %d = %d, want %d,%v", x, val, want, ok)
			}
			return true
		})
		if n != len(ref) {
			t.Fatalf("after the Applies %d records, want %d", n, len(ref))
		}
	})
}
