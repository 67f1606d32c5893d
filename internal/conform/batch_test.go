package conform

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// The commit capability must reach the server through every layer above
// the store: a wrapper that drops it leaves the server's Apply calls
// uncommitted until the log's buffer fills. (apply_test.go pins Applier
// on the same layers.)
var (
	_ core.Committer = (*lix.Durable)(nil)
	_ core.Committer = (*lix.ObservedMutableIndex)(nil)
	_ core.Committer = (*lix.Stack)(nil)
)

// TestBatchEquivalence drives every registered 1-D factory — including
// the layered durable-* and sharded-* configurations — through same-kind
// batches of core.Apply and demands state equivalence with the
// sequentially-replayed oracle, over every workload shape.
func TestBatchEquivalence(t *testing.T) {
	nInit, nOps := diffSizes1D(t)
	for _, f := range Factories1D() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for _, shape := range Shapes1D() {
				w, err := NewWorkload1D(shape, nInit, nOps, f.Caps.Mutable, 0xBA7C4)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckBatchEquivalence(f, w, 64); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestBatchLaterWinsPin pins the duplicate-key contract inside one batch
// for every mutable factory: a batch of puts resolves duplicates
// later-wins, a batch of deletes reports liveness first-wins — exactly
// what the equivalent sequential loop would do.
func TestBatchLaterWinsPin(t *testing.T) {
	for _, f := range Factories1D() {
		if !f.Caps.Mutable {
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			ix, err := f.Build1D([]core.KV{{Key: 10, Value: 1}})
			if err != nil {
				t.Fatal(err)
			}
			defer closeIndex(ix)
			mix := ix.(MutableIndex)
			puts := []core.Op{
				{Kind: core.OpPut, Key: 42, Val: 1}, {Kind: core.OpPut, Key: 7, Val: 3}, {Kind: core.OpPut, Key: 42, Val: 2},
			}
			if err := core.Apply(mix, puts, make([]core.Value, 3), make([]bool, 3), nil); err != nil {
				t.Fatal(err)
			}
			if v, ok := mix.Get(42); !ok || v != 2 {
				t.Fatalf("Get(42) = (%d, %v), want later-wins (2, true)", v, ok)
			}
			if v, ok := mix.Get(7); !ok || v != 3 {
				t.Fatalf("Get(7) = (%d, %v), want (3, true)", v, ok)
			}
			dels := []core.Op{{Kind: core.OpDel, Key: 42}, {Kind: core.OpDel, Key: 42}, {Kind: core.OpDel, Key: 99}}
			oks := []bool{false, true, true}
			if err := core.Apply(mix, dels, make([]core.Value, 3), oks, nil); err != nil || !oks[0] || oks[1] || oks[2] {
				t.Fatalf("deletes of 42, 42, 99 = %v, %v, want [true false false]", oks, err)
			}
			if mix.Len() != 2 {
				t.Fatalf("Len = %d, want 2 (keys 7, 10)", mix.Len())
			}
		})
	}
}

// putOps is a batch of upserts of recs.
func putOps(recs []core.KV) []core.Op {
	ops := make([]core.Op, len(recs))
	for i, r := range recs {
		ops[i] = core.Op{Kind: core.OpPut, Key: r.Key, Val: r.Value}
	}
	return ops
}

// applyCommit applies ops to st and commits them: the acknowledged batch
// write.
func applyCommit(st *lix.Stack, ops []core.Op) error {
	if err := st.Apply(ops, make([]core.Value, len(ops)), make([]bool, len(ops)), nil); err != nil {
		return err
	}
	return st.Commit(nil)
}

// copyDir copies a flat store directory (no subdirectories).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableBatchCrashAtomicity asserts the all-or-prefix property of a
// batched durable insert: the whole batch is one contiguous WAL frame
// group, so truncating the log at any byte offset (the crash model)
// recovers exactly a prefix of the batch in submission order — never a
// subset with holes, never reordered. Its "apply" subtest does the same
// for mixed batches: Apply → Commit → Crash → reopen equals the replay,
// and a batch applied after the last Commit comes back whole or not at all.
func TestDurableBatchCrashAtomicity(t *testing.T) {
	t.Run("apply", applyCrash)
	const (
		walHeader   = 24 // WAL file header bytes
		insertFrame = 33 // u32 len + u32 crc + (op u8, seq u64, key u64, val u64)
		batchLen    = 50
	)
	dir := t.TempDir()
	st, err := lix.NewStack(nil, lix.StackConfig{
		Dir: dir, Fsync: lix.FsyncNever, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keys deliberately not in sorted order: the recovered prefix must
	// follow batch submission order, not key order.
	batch := make([]core.KV, batchLen)
	for i := range batch {
		batch[i] = core.KV{Key: core.Key((i*7919 + 13) % 1000), Value: core.Value(i + 1)}
	}
	if err := applyCommit(st, putOps(batch)); err != nil {
		t.Fatal(err)
	}
	if err := st.Durable().Crash(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*-000.lix"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL file found: %v (%v)", wals, err)
	}
	wal := wals[len(wals)-1] // lexicographically largest generation
	walData, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if want := walHeader + batchLen*insertFrame; len(walData) != want {
		t.Fatalf("WAL size %d, want %d (batch not one contiguous frame group?)", len(walData), want)
	}

	for _, cut := range []int{
		walHeader,                       // everything torn
		walHeader + insertFrame,         // exactly one frame
		walHeader + 10*insertFrame + 17, // torn mid-frame after 10
		walHeader + 49*insertFrame,      // one frame short
		walHeader + 50*insertFrame,      // intact
	} {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			cdir := t.TempDir()
			copyDir(t, dir, cdir)
			if err := os.Truncate(filepath.Join(cdir, filepath.Base(wal)), int64(cut)); err != nil {
				t.Fatal(err)
			}
			r, err := lix.NewStack(nil, lix.StackConfig{Dir: cdir, Fsync: lix.FsyncNever, CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			wantFrames := (cut - walHeader) / insertFrame
			// The recovered state must be exactly the batch prefix replayed
			// sequentially (later-wins on duplicate keys within the prefix).
			o := newOracle1D(nil)
			for _, r := range batch[:wantFrames] {
				o.Insert(r.Key, r.Value)
			}
			if r.Len() != o.Len() {
				t.Fatalf("recovered Len = %d, want %d (prefix of %d frames)", r.Len(), o.Len(), wantFrames)
			}
			for _, rec := range o.recs {
				v, ok := r.Get(rec.Key)
				if !ok || v != rec.Value {
					t.Fatalf("recovered Get(%d) = (%d, %v), want (%d, true)", rec.Key, v, ok, rec.Value)
				}
			}
		})
	}
}

// TestDurableBatchFsyncAmortization: under FsyncAlways, N records
// inserted as one Apply and one Commit cost exactly one fsync (the batch is
// one append to the log and the commit one write and one fsync), against
// one per record for N single Puts.
func TestDurableBatchFsyncAmortization(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i), Value: core.Value(i)}
	}

	run := func(batched bool) uint64 {
		dir := t.TempDir()
		st, err := lix.NewStack(nil, lix.StackConfig{
			Dir: dir, Fsync: lix.FsyncAlways, CheckpointEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := st.Durable()
		base := d.Fsyncs()
		if batched {
			if err := applyCommit(st, putOps(recs)); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, r := range recs {
				if err := d.Put(r.Key, r.Value); err != nil {
					t.Fatal(err)
				}
			}
		}
		fsyncs := d.Fsyncs() - base
		if d.Len() != n {
			t.Fatalf("Len = %d, want %d", d.Len(), n)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return fsyncs
	}

	looped := run(false)
	batched := run(true)
	t.Logf("fsyncs: %d looped vs %d batched for %d records (%.0fx)",
		looped, batched, n, float64(looped)/float64(max(batched, 1)))
	if batched != 1 {
		t.Fatalf("Apply + Commit of %d records issued %d fsyncs, want 1", n, batched)
	}
	if looped < 10*batched {
		t.Fatalf("fsync amortization too weak: %d looped vs %d batched (want >= 10x)", looped, batched)
	}
}
