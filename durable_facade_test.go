package lix

import "testing"

func durableSeed(n int) []KV {
	recs := make([]KV, n)
	for i := range recs {
		recs[i] = KV{Key: Key(i * 2), Value: Value(i)}
	}
	return recs
}

func TestDurableFacadeLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts DurableOptions
	}{
		{"btree", DurableOptions{Fsync: FsyncNever, CheckpointEvery: -1}},
		{"alex", DurableOptions{Kind: "alex", Fsync: FsyncNever, CheckpointEvery: -1}},
		{"sharded", DurableOptions{Shards: 4, Fsync: FsyncNever, CheckpointEvery: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := NewDurable(dir, durableSeed(500), tc.opts)
			if err != nil {
				t.Fatalf("NewDurable: %v", err)
			}
			for i := 0; i < 200; i++ {
				if err := d.Put(Key(i*2+1), Value(i+1000)); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			if ok, err := d.Del(0); err != nil || !ok {
				t.Fatalf("del: %v %v", ok, err)
			}
			wantLen := d.Len()
			if err := d.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// A bare Open must rebuild the stored configuration from meta.
			d2, err := Open(dir, DurableOptions{Fsync: FsyncNever, CheckpointEvery: -1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d2.Close()
			if d2.Len() != wantLen {
				t.Fatalf("recovered %d records, want %d", d2.Len(), wantLen)
			}
			if v, ok := d2.Get(3); !ok || v != 1001 {
				t.Fatalf("recovered get(3) = %d,%v", v, ok)
			}
			if _, ok := d2.Get(0); ok {
				t.Fatal("deleted key resurrected")
			}
			if tc.opts.Shards > 0 && d2.Segments() != tc.opts.Shards {
				t.Fatalf("segments %d, want %d", d2.Segments(), tc.opts.Shards)
			}
		})
	}
}

func TestDurableFacadeConfigConflicts(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDurable(dir, nil, DurableOptions{Kind: "btree", Shards: 2, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	d.Put(1, 1)
	d.Close()

	if _, err := Open(dir, DurableOptions{Kind: "alex"}); err == nil {
		t.Fatal("conflicting kind accepted on reopen")
	}
	if _, err := Open(dir, DurableOptions{Shards: 8}); err == nil {
		t.Fatal("conflicting shard count accepted on reopen")
	}
	// Matching explicit options are fine.
	d2, err := Open(dir, DurableOptions{Kind: "btree", Shards: 2, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}
	d2.Close()

	if _, err := Open(t.TempDir(), DurableOptions{Kind: "no-such-kind"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Open(t.TempDir(), DurableOptions{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestDurableFacadeBatches(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DurableOptions{Shards: 4, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := durableSeed(1000)
	keys := make([]Key, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	if _, _, err := applyOps(d, putOps(recs)); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(nil); err != nil {
		t.Fatal(err)
	}
	vals, oks, err := applyOps(d, keyOps(OpGet, keys...))
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !oks[i] || vals[i] != recs[i].Value {
			t.Fatalf("batch lookup %d: (%d,%v)", i, vals[i], oks[i])
		}
	}
	d.Close()

	d2, err := Open(dir, DurableOptions{Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != len(recs) {
		t.Fatalf("recovered %d, want %d", d2.Len(), len(recs))
	}
}
