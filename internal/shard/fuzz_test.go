package shard

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/lix-go/lix/internal/btree"
	"github.com/lix-go/lix/internal/core"
)

// FuzzShardRouter proves the key→shard partitioner is total, stable and
// order-preserving: every key routes to exactly one in-range shard, the
// routing is a pure function of the key, Route is monotone in the key, and
// Owns() intervals tile the key space with no key lost or double-owned —
// including boundary keys 0 and MaxUint64 and duplicate split keys.
func FuzzShardRouter(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1}, uint8(4))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(2))
	f.Add([]byte{1, 2, 3}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, extra uint8) {
		// Decode the corpus bytes into split keys, then adversarially add
		// the extremes and a duplicate so every run exercises them.
		var splits []core.Key
		for i := 0; i+8 <= len(raw) && len(splits) < 64; i += 8 {
			splits = append(splits, binary.LittleEndian.Uint64(raw[i:]))
		}
		if extra%2 == 0 {
			splits = append(splits, 0, math.MaxUint64)
		}
		if len(splits) > 0 {
			splits = append(splits, splits[0]) // duplicate boundary
		}
		r := NewRouter(splits)
		n := r.Shards()
		if n != len(splits)+1 {
			t.Fatalf("Shards() = %d with %d splits", n, len(splits))
		}

		probes := []core.Key{0, 1, math.MaxUint64 - 1, math.MaxUint64}
		for _, b := range r.Bounds() {
			probes = append(probes, b)
			if b > 0 {
				probes = append(probes, b-1)
			}
			if b < math.MaxUint64 {
				probes = append(probes, b+1)
			}
		}

		for _, k := range probes {
			si := r.Route(k)
			// Total: every key routes to an in-range shard.
			if si < 0 || si >= n {
				t.Fatalf("Route(%d) = %d, out of [0,%d)", k, si, n)
			}
			// Stable: routing is a pure function of the key.
			if again := r.Route(k); again != si {
				t.Fatalf("Route(%d) unstable: %d then %d", k, si, again)
			}
			// Owned exactly once: the routed shard's interval contains k,
			// and no other shard's interval does.
			owners := 0
			for i := 0; i < n; i++ {
				lo, hi, ok := r.Owns(i)
				if ok && k >= lo && k <= hi {
					owners++
					if i != si {
						t.Fatalf("key %d routes to %d but is owned by %d", k, si, i)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("key %d owned by %d shards", k, owners)
			}
		}

		// Order-preserving across the probe set.
		for _, a := range probes {
			for _, b := range probes {
				if a <= b && r.Route(a) > r.Route(b) {
					t.Fatalf("Route not monotone: Route(%d)=%d > Route(%d)=%d",
						a, r.Route(a), b, r.Route(b))
				}
			}
		}

		// Owns() intervals must tile: consecutive non-empty intervals are
		// adjacent, starting at 0 and ending at MaxUint64.
		expectLo := core.Key(0)
		last := core.Key(0)
		any := false
		for i := 0; i < n; i++ {
			lo, hi, ok := r.Owns(i)
			if !ok {
				continue
			}
			if lo != expectLo {
				t.Fatalf("shard %d starts at %d, want %d (gap or overlap)", i, lo, expectLo)
			}
			if hi < math.MaxUint64 {
				expectLo = hi + 1
			} else {
				expectLo = 0 // sentinel; must be the last non-empty interval
			}
			last = hi
			any = true
		}
		if !any || last != math.MaxUint64 {
			t.Fatalf("intervals do not cover the key space (last hi = %d)", last)
		}
	})
}

// FuzzApply decodes bytes into a sequence of mixed batches over a lattice
// of 16 keys, so that one batch holds same-key chains, and applies them to
// a Sharded of 1–4 shards — with a fan-out threshold of 2 on half the
// inputs, which puts nearly every batch through the fan-out regime when
// the run has a second P — against a map as the oracle: every get and
// delete answer, and the final contents, must equal the sequential replay.
// The shards are B+-trees of order 4, so that nearly every batch splits,
// borrows or merges leaves between the ops its runs located, or ALEX
// indexes; both do their runs through their own Apply.
//
// Input layout: byte 0 picks the shard count (low two bits), the regime
// (bit 2) and the backend (bit 3: ALEX); then each op is one byte — the
// low two bits the kind (0 get, 1 put, 2 del, 3 end of batch), the next
// four the key — and a put's value is the op's position in the input.
func FuzzApply(f *testing.F) {
	f.Add([]byte{0x03, 0x05, 0x04, 0x06, 0x04, 0x03, 0x10, 0x11, 0x12, 0x10})
	f.Add([]byte{0x07, 0x01, 0x00, 0x02, 0x00, 0x01, 0x02, 0x01, 0x00, 0x03, 0x3c, 0x3d, 0x3e})
	f.Add([]byte{0x04, 0x02, 0x02, 0x00, 0x03, 0x03, 0x01})
	f.Add([]byte{0x0c, 0x05, 0x09, 0x0d, 0x11, 0x15, 0x19, 0x1d, 0x02, 0x06, 0x0a, 0x0e, 0x12, 0x03, 0x04, 0x08, 0x0c})
	f.Add([]byte{0x01, 0x3d, 0x39, 0x35, 0x31, 0x2d, 0x29, 0x25, 0x21, 0x3e, 0x3a, 0x36, 0x32, 0x2e, 0x2a, 0x3c, 0x38})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		lattice := func(i byte) core.Key { return core.Key(i)<<59 | core.Key(i)*7 }
		var init []core.KV
		for i := byte(0); i < 16; i += 2 {
			init = append(init, core.KV{Key: lattice(i), Value: core.Value(i)})
		}
		b := Builders{Bulk: func(recs []core.KV) (MutableIndex, error) {
			t, err := btree.Bulk(4, recs)
			return t, err
		}}
		if data[0]&8 != 0 {
			b = alexBuilders()
		}
		s, err := New(init, Config{Shards: 1 + int(data[0]&3)}, b)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if data[0]&4 != 0 {
			s.fanoutMin = 2
		}
		oracle := map[core.Key]core.Value{}
		for _, r := range init {
			oracle[r.Key] = r.Value
		}
		var ops []core.Op
		apply := func() {
			vals, oks := make([]core.Value, len(ops)), make([]bool, len(ops))
			s.Apply(ops, vals, oks, nil)
			for i, op := range ops {
				switch op.Kind {
				case core.OpGet:
					if v, ok := oracle[op.Key]; oks[i] != ok || (ok && vals[i] != v) {
						t.Fatalf("op %d: get %d = (%d, %v), oracle (%d, %v)", i, op.Key, vals[i], oks[i], v, ok)
					}
				case core.OpPut:
					oracle[op.Key] = op.Val
				case core.OpDel:
					if _, ok := oracle[op.Key]; oks[i] != ok {
						t.Fatalf("op %d: del %d = %v, oracle %v", i, op.Key, oks[i], ok)
					}
					delete(oracle, op.Key)
				}
			}
			ops = ops[:0]
		}
		for pos, b := range data[1:] {
			if b&3 == 3 {
				apply()
				continue
			}
			ops = append(ops, core.Op{Kind: core.OpKind(b & 3), Key: lattice(b >> 2 & 15), Val: core.Value(pos)})
		}
		apply()
		if s.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle %d", s.Len(), len(oracle))
		}
		for _, r := range s.SearchRange(0, ^core.Key(0)) {
			if v, ok := oracle[r.Key]; !ok || v != r.Value {
				t.Fatalf("key %d = %d, oracle (%d, %v)", r.Key, r.Value, v, ok)
			}
		}
	})
}
