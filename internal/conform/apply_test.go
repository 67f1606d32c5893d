package conform

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// The mixed-batch differential: random batches of gets, puts and deletes
// over a small key lattice — so one batch holds same-key chains — go
// through core.Apply on every layer, and the answers and the final state
// must equal the sequential replay of the same ops against the oracle.

// Every layer above the backends must keep the mixed-batch capability: a
// wrapper that drops it sends the server back to a point loop.
var (
	_ core.Applier = (*lix.Sharded)(nil)
	_ core.Applier = (*lix.Durable)(nil)
	_ core.Applier = (*lix.ObservedMutableIndex)(nil)
	_ core.Applier = (*lix.Stack)(nil)
)

// applyLattice is the key space of the mixed batches: the even lattice
// points preloaded, the odd ones absent at the start.
func applyLattice() (keys []core.Key, init []core.KV) {
	for i := 0; i < 96; i++ {
		k := core.Key(i*7919 + 3)
		keys = append(keys, k)
		if i%2 == 0 {
			init = append(init, core.KV{Key: k, Value: core.Value(i)})
		}
	}
	return keys, init
}

// chainBatch is the hand-written batch of same-key chains: put→get,
// del→get, put→del→put→get, a delete of an absent key, repeated gets.
func chainBatch(keys []core.Key) []core.Op {
	present, absent, other := keys[0], keys[1], keys[2]
	return []core.Op{
		{Kind: core.OpPut, Key: absent, Val: 1}, {Kind: core.OpGet, Key: absent},
		{Kind: core.OpDel, Key: present}, {Kind: core.OpGet, Key: present},
		{Kind: core.OpPut, Key: other, Val: 2}, {Kind: core.OpDel, Key: other},
		{Kind: core.OpPut, Key: other, Val: 3}, {Kind: core.OpGet, Key: other},
		{Kind: core.OpDel, Key: keys[3]}, {Kind: core.OpDel, Key: keys[3]},
		{Kind: core.OpGet, Key: absent}, {Kind: core.OpGet, Key: absent},
	}
}

// randomBatch is n ops over keys: half gets, a third puts, the rest deletes.
func randomBatch(rng *rand.Rand, keys []core.Key, n int, val *core.Value) []core.Op {
	ops := make([]core.Op, n)
	for i := range ops {
		ops[i].Key = keys[rng.Intn(len(keys))]
		switch p := rng.Intn(6); {
		case p < 3:
			ops[i].Kind = core.OpGet
		case p < 5:
			*val++
			ops[i] = core.Op{Kind: core.OpPut, Key: ops[i].Key, Val: *val}
		default:
			ops[i].Kind = core.OpDel
		}
	}
	return ops
}

// replayApply checks one batch's answers against the oracle, which it
// advances by the batch.
func replayApply(o *oracle1D, ops []core.Op, vals []core.Value, oks []bool) error {
	for i, op := range ops {
		switch op.Kind {
		case core.OpGet:
			if wv, wok := o.Get(op.Key); oks[i] != wok || (wok && vals[i] != wv) {
				return fmt.Errorf("op %d: get %d = (%d, %v), oracle (%d, %v)", i, op.Key, vals[i], oks[i], wv, wok)
			}
		case core.OpPut:
			o.Insert(op.Key, op.Val)
		case core.OpDel:
			if want := o.Delete(op.Key); oks[i] != want {
				return fmt.Errorf("op %d: del %d = %v, oracle %v", i, op.Key, oks[i], want)
			}
		}
	}
	return nil
}

// sameState compares the whole key space and the cardinality of ix with o.
func sameState(ix MutableIndex, o *oracle1D) error {
	if got := core.CollectRange(ix, 0, ^core.Key(0)); !reflect.DeepEqual(got, append([]core.KV{}, o.recs...)) {
		return fmt.Errorf("final state: %d records, oracle %d", len(got), o.Len())
	}
	if ix.Len() != o.Len() {
		return fmt.Errorf("final Len() = %d, oracle %d", ix.Len(), o.Len())
	}
	return nil
}

// applyInput is one input of the mixed-batch differential: a preload and
// the generator of its batches (b counts from 0, val numbers the puts).
type applyInput struct {
	name    string
	init    []core.KV
	batches int
	batch   func(rng *rand.Rand, b int, val *core.Value) []core.Op
}

// latticeInput is the chain batch, then batches of lo..hi random ops over
// the small lattice.
func latticeInput(batches, lo, hi int) applyInput {
	keys, init := applyLattice()
	return applyInput{name: "lattice", init: init, batches: batches,
		batch: func(rng *rand.Rand, b int, val *core.Value) []core.Op {
			if b == 0 {
				return chainBatch(keys)
			}
			return randomBatch(rng, keys, lo+rng.Intn(hi-lo+1), val)
		}}
}

// Deep input geometry: deepKeys records 64 apart, which is three levels of
// B+-tree at order 64, whose bulk load starts a leaf every deepLeaf
// records. Sixteen batches at a time stay within deepBoundaries leaf
// boundaries, in one of three windows, each inside one of ALEX's
// bulk-loaded data nodes of 4000 records, so that its puts pile up there.
const (
	deepKeys       = 20_000
	deepLeaf       = 57
	deepBoundaries = 20
)

// deepInput is batches of 1-512 ops on keys within 8 records of a B+-tree
// leaf boundary, preloaded ones and the 15 absent ones after each, in
// phases of eight put-heavy batches and eight delete-heavy ones: runs
// cross leaf splits, borrows and merges, and ALEX expands, in the middle
// of a chunk.
func deepInput(batches int) applyInput {
	init := make([]core.KV, deepKeys)
	for i := range init {
		init[i] = core.KV{Key: core.Key(i) << 6, Value: core.Value(i)}
	}
	return applyInput{name: "deep", init: init, batches: batches,
		batch: func(rng *rand.Rand, b int, val *core.Value) []core.Op {
			puts, dels := 7, 1 // of 10, the rest gets
			if b/8%2 == 1 {
				puts, dels = 1, 8
			}
			ops := make([]core.Op, 1+rng.Intn(512))
			for i := range ops {
				rec := (100+b/16%3*70+rng.Intn(deepBoundaries))*deepLeaf + rng.Intn(17) - 8
				k := core.Key(rec)<<6 | core.Key(rng.Intn(16))
				switch p := rng.Intn(10); {
				case p < puts:
					*val++
					ops[i] = core.Op{Kind: core.OpPut, Key: k, Val: *val}
				case p < puts+dels:
					ops[i] = core.Op{Kind: core.OpDel, Key: k}
				default:
					ops[i] = core.Op{Kind: core.OpGet, Key: k}
				}
			}
			return ops
		}}
}

// checkApply drives ix (preloaded with in.init) through in's batches with
// core.Apply — poisoned result buffers, a live span on every second call —
// and compares every answer and the final state with the sequential
// replay.
func checkApply(ix MutableIndex, in applyInput, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	o := newOracle1D(in.init)
	var (
		sp  altSpan
		val core.Value = 1000
	)
	for b := 0; b <= in.batches; b++ {
		ops := in.batch(rng, b, &val)
		vals, oks := make([]core.Value, len(ops)), make([]bool, len(ops))
		for i := range oks {
			vals[i], oks[i] = ^core.Value(0), true
		}
		if err := core.Apply(ix, ops, vals, oks, sp.next(len(ops))); err != nil {
			return fmt.Errorf("batch %d: Apply: %v", b, err)
		}
		if err := replayApply(o, ops, vals, oks); err != nil {
			return fmt.Errorf("batch %d of %d ops: %v", b, len(ops), err)
		}
	}
	return sameState(ix, o)
}

func applyBatches(t *testing.T) int {
	if testing.Short() {
		return 60
	}
	return 300
}

// TestApplyEquivalence: every registered mutable kind (a bare backend
// through its own Apply, btree and alex, or core.Apply's point loop; the
// sharded-rw and durable-* factories through theirs), and each of those
// under the obs wrapper, on two inputs: the small lattice, and the deep
// input, on which the bulk-loaded B+-tree is at least three levels deep.
func TestApplyEquivalence(t *testing.T) {
	inputs := []applyInput{latticeInput(applyBatches(t), 1, 48), deepInput(applyBatches(t) / 4)}
	for _, f := range Factories1D() {
		if !f.Caps.Mutable {
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for _, in := range inputs {
				for _, observed := range []bool{false, true} {
					ix, err := f.Build1D(in.init)
					if err != nil {
						t.Fatal(err)
					}
					if h := ix.Stats().Height; f.Name == "btree" && in.name == "deep" && h < 3 {
						t.Fatalf("deep input: B+-tree of height %d, want at least 3", h)
					}
					mix := ix.(MutableIndex)
					if observed {
						mix = lix.ObserveMutable(mix, lix.NewMetrics("apply-"+f.Name))
					}
					err = checkApply(mix, in, int64(len(f.Name)))
					closeIndex(ix)
					if err != nil {
						t.Fatalf("%s input, observed=%v: %v", in.name, observed, err)
					}
				}
			}
		})
	}
}

// TestApplyShardRegimes runs the sharded layer in both regimes: batches
// under the fan-out threshold, grouped by shard and done in turn on the
// caller, and batches over it (with a second P), fanned out one goroutine
// per shard.
func TestApplyShardRegimes(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, c := range []struct {
		name   string
		lo, hi int
	}{{"grouped", 1, 64}, {"fanout", 512, 1024}} {
		t.Run(c.name, func(t *testing.T) {
			in := latticeInput(applyBatches(t)/4, c.lo, c.hi)
			st, err := lix.NewStack(in.init, lix.StackConfig{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := checkApply(st, in, 0x5a); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestApplyDurableStack runs the whole durable stack — sharded, durable,
// observed — with checkpoints every 64 records, so batches cross log
// rotations, flushes and compactions; then it reopens the directory and
// compares again. The obs wrapper counts each batch once and each op in
// its family's counter.
func TestApplyDurableStack(t *testing.T) {
	keys, init := applyLattice()
	dir := t.TempDir()
	m := lix.NewMetrics("apply-stack")
	st, err := lix.NewStack(init, lix.StackConfig{
		Dir: dir, Shards: 4, Fsync: lix.FsyncNever, CheckpointEvery: 64, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0xd5))
	o := newOracle1D(init)
	val, gets, batches := core.Value(1000), uint64(0), applyBatches(t)
	for b := 0; b < batches; b++ {
		ops := randomBatch(rng, keys, 1+rng.Intn(40), &val)
		vals, oks := make([]core.Value, len(ops)), make([]bool, len(ops))
		if err := st.Apply(ops, vals, oks, nil); err != nil {
			t.Fatal(err)
		}
		if err := replayApply(o, ops, vals, oks); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		for _, op := range ops {
			if op.Kind == core.OpGet {
				gets++
			}
		}
		if b%7 == 0 {
			if err := st.Commit(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sameState(st, o); err != nil {
		t.Fatal(err)
	}
	if snap := m.Snapshot(); snap.Counters["batches"] != uint64(batches) || snap.Counters["lookups"] != gets {
		t.Errorf("batches = %d, lookups = %d; want %d and %d", snap.Counters["batches"], snap.Counters["lookups"], batches, gets)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := lix.NewStack(nil, lix.StackConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := sameState(re, o); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
}

// applyCrash is the mixed-batch half of TestDurableBatchCrashAtomicity:
// committed Apply batches survive a crash exactly, and a batch applied
// after the last Commit comes back whole or not at all.
func applyCrash(t *testing.T) {
	keys, init := applyLattice()
	dir := t.TempDir()
	cfg := lix.StackConfig{Dir: dir, Shards: 4, Fsync: lix.FsyncNever, CheckpointEvery: -1}
	st, err := lix.NewStack(init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := st.Durable()
	rng := rand.New(rand.NewSource(0xc4))
	o := newOracle1D(init)
	val := core.Value(1000)
	for b := 0; b < 20; b++ {
		ops := randomBatch(rng, keys, 1+rng.Intn(40), &val)
		vals, oks := make([]core.Value, len(ops)), make([]bool, len(ops))
		if err := d.Apply(ops, vals, oks, nil); err != nil {
			t.Fatal(err)
		}
		if err := replayApply(o, ops, vals, oks); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Commit(nil); err != nil {
		t.Fatal(err)
	}
	committed := newOracle1D(o.recs)
	last := randomBatch(rng, keys, 40, &val)
	vals, oks := make([]core.Value, len(last)), make([]bool, len(last))
	if err := d.Apply(last, vals, oks, nil); err != nil {
		t.Fatal(err)
	}
	if err := replayApply(o, last, vals, oks); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	r, err := lix.NewStack(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if sameState(r, committed) != nil && sameState(r, o) != nil {
		t.Fatalf("recovered %d records: neither the %d committed nor the %d with the last batch whole", r.Len(), committed.Len(), o.Len())
	}
}
