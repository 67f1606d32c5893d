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
		cfg  StackConfig
	}{
		{"btree", StackConfig{Fsync: FsyncNever, CheckpointEvery: -1}},
		{"alex", StackConfig{Kind: "alex", Fsync: FsyncNever, CheckpointEvery: -1}},
		{"sharded", StackConfig{Shards: 4, Fsync: FsyncNever, CheckpointEvery: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tc.cfg
			cfg.Dir = dir
			st, err := NewStack(durableSeed(500), cfg)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			d := st.Durable()
			for i := 0; i < 200; i++ {
				if err := d.Put(Key(i*2+1), Value(i+1000)); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			if ok, err := d.Del(0); err != nil || !ok {
				t.Fatalf("del: %v %v", ok, err)
			}
			wantLen := st.Len()
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// A bare reopen must rebuild the stored configuration from meta.
			st2, err := NewStack(nil, StackConfig{Dir: dir, Fsync: FsyncNever, CheckpointEvery: -1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close()
			if st2.Len() != wantLen {
				t.Fatalf("recovered %d records, want %d", st2.Len(), wantLen)
			}
			if v, ok := st2.Get(3); !ok || v != 1001 {
				t.Fatalf("recovered get(3) = %d,%v", v, ok)
			}
			if _, ok := st2.Get(0); ok {
				t.Fatal("deleted key resurrected")
			}
			if tc.cfg.Shards > 0 && st2.Durable().Segments() != tc.cfg.Shards {
				t.Fatalf("segments %d, want %d", st2.Durable().Segments(), tc.cfg.Shards)
			}
		})
	}
}

func TestDurableFacadeConfigConflicts(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStack(nil, StackConfig{Dir: dir, Kind: "btree", Shards: 2, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	st.Insert(1, 1)
	st.Close()

	if _, err := NewStack(nil, StackConfig{Dir: dir, Kind: "alex"}); err == nil {
		t.Fatal("conflicting kind accepted on reopen")
	}
	if _, err := NewStack(nil, StackConfig{Dir: dir, Shards: 8}); err == nil {
		t.Fatal("conflicting shard count accepted on reopen")
	}
	// Matching explicit options are fine.
	st2, err := NewStack(nil, StackConfig{Dir: dir, Kind: "btree", Shards: 2, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}
	st2.Close()

	// Creating over an existing store must fail, even with an empty seed.
	if st3, err := NewStack([]KV{}, StackConfig{Dir: dir}); err == nil {
		st3.Close()
		t.Fatal("create over an existing store accepted")
	}

	if _, err := NewStack(nil, StackConfig{Dir: t.TempDir(), Kind: "no-such-kind"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := NewStack(nil, StackConfig{Dir: t.TempDir(), Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestStackReopenRecoversKindAndShards reopens a non-btree sharded store
// with nothing but its directory: the stored kind and shard count come
// back, and explicit values that differ from them are still refused.
func TestStackReopenRecoversKindAndShards(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStack(durableSeed(300), StackConfig{Dir: dir, Kind: "alex", Shards: 2, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewStack(nil, StackConfig{Dir: dir})
	if err != nil {
		t.Fatalf("bare reopen: %v", err)
	}
	if re.Len() != 300 {
		t.Errorf("recovered %d records, want 300", re.Len())
	}
	if v, ok := re.Get(2 * 299); !ok || v != 299 {
		t.Errorf("recovered get(598) = %d,%v", v, ok)
	}
	if got := re.Durable().Meta()["kind"]; got != "alex" {
		t.Errorf("stored kind %q, want alex", got)
	}
	if sh := re.Sharded(); sh == nil {
		t.Error("no sharded layer after reopen")
	} else if sh.Shards() != 2 {
		t.Errorf("%d shards after reopen, want 2", sh.Shards())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []StackConfig{{Dir: dir, Kind: "btree"}, {Dir: dir, Shards: 8}} {
		if bad, err := NewStack(nil, cfg); err == nil {
			bad.Close()
			t.Errorf("reopen with Kind %q Shards %d accepted", cfg.Kind, cfg.Shards)
		}
	}
}

func TestDurableFacadeBatches(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStack(nil, StackConfig{Dir: dir, Shards: 4, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := durableSeed(1000)
	keys := make([]Key, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	if _, _, err := applyOps(st, putOps(recs)); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(nil); err != nil {
		t.Fatal(err)
	}
	vals, oks, err := applyOps(st, keyOps(OpGet, keys...))
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !oks[i] || vals[i] != recs[i].Value {
			t.Fatalf("batch lookup %d: (%d,%v)", i, vals[i], oks[i])
		}
	}
	st.Close()

	st2, err := NewStack(nil, StackConfig{Dir: dir, Fsync: FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != len(recs) {
		t.Fatalf("recovered %d, want %d", st2.Len(), len(recs))
	}
}
