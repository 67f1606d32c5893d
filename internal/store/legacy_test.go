package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.lix", gen))
}

// legacyDir lays out what the retired snapshot-rewrite engine left behind
// after a checkpoint at generation 3 and a kill: snapshot 3 holding keys
// 0..299 (value key+1) with LastSeq 300, and a generation-3 WAL tail that
// overwrites key 5, deletes key 7 and inserts keys 1000..1009. It returns
// the committed state.
func legacyDir(t *testing.T, dir string) map[core.Key]core.Value {
	t.Helper()
	want := map[core.Key]core.Value{}
	var recs []core.KV
	for i := 0; i < 300; i++ {
		recs = append(recs, core.KV{Key: core.Key(i), Value: core.Value(i + 1)})
		want[core.Key(i)] = core.Value(i + 1)
	}
	meta := map[string]string{"kind": "mem"}
	if err := WriteSnapshot(snapPath(dir, 3), &SnapshotData{Meta: meta, Recs: recs, LastSeq: 300}); err != nil {
		t.Fatal(err)
	}
	w, _, _, err := OpenWAL(walPath(dir, 3, 0), 3, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tail := []Record{
		{Seq: 301, Op: OpInsert, Key: 5, Val: 5555},
		{Seq: 302, Op: OpDelete, Key: 7},
	}
	want[5] = 5555
	delete(want, 7)
	for i := 0; i < 10; i++ {
		tail = append(tail, Record{Seq: uint64(303 + i), Op: OpInsert, Key: core.Key(1000 + i), Val: 9})
		want[core.Key(1000+i)] = 9
	}
	if _, err := w.Append(tail...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func checkState(t *testing.T, d *Durable, want map[core.Key]core.Value, when string) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("%s: %d records, want %d", when, d.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := d.Get(k); !ok || got != v {
			t.Fatalf("%s: key %d = (%d, %v), want %d", when, k, got, ok, v)
		}
	}
	if _, ok := d.Get(7); ok {
		t.Fatalf("%s: the key the WAL tail deleted is back", when)
	}
}

// TestLegacySnapshotDirConverts: a directory written by the retired
// snapshot engine opens with every committed record, is runs and a
// manifest afterwards (the snapshot gone, its meta and generation kept),
// accepts writes and checkpoints, and reopens.
func TestLegacySnapshotDirConverts(t *testing.T) {
	dir := t.TempDir()
	want := legacyDir(t, dir)
	var gotMeta map[string]string
	build := func(meta map[string]string, recs []core.KV) (BuildResult, error) {
		gotMeta = meta
		return memBuild(1)(meta, recs)
	}
	d, err := Open(dir, lsmCfg(), build)
	if err != nil {
		t.Fatalf("open of a snapshot-engine directory: %v", err)
	}
	checkState(t, d, want, "converted")
	if gotMeta["kind"] != "mem" {
		t.Fatalf("builder saw meta %v, want the snapshot's", gotMeta)
	}
	if ri := d.RecoveryInfo(); ri.SnapshotGen != 3 || ri.Runs != 1 || ri.SnapshotRecs != 300 || ri.WALRecs != 12 {
		t.Fatalf("RecoveryInfo = %+v, want generation 3, 1 run of 300 records, 12 WAL records", ri)
	}
	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.snaps) != 0 || len(st.manifests) != 1 || len(st.runs) != 1 {
		t.Fatalf("after conversion: %d snapshots, %d manifests, %d runs; want 0, 1, 1", len(st.snaps), len(st.manifests), len(st.runs))
	}
	if ls := d.LSMStats(); ls.ManifestGen != 3 || ls.ManifestSeq != 300 {
		t.Fatalf("LSMStats = %+v, want the snapshot's generation and watermark", ls)
	}

	// It is an ordinary store from here on.
	if err := d.Put(2000, 1); err != nil {
		t.Fatal(err)
	}
	want[2000] = 1
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(2001, 2); err != nil {
		t.Fatal(err)
	}
	want[2001] = 2
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	checkState(t, d2, want, "reopened")
}

// TestLegacyConversionCrashSweep kills the conversion after each of its
// steps — run written, manifest written, snapshot removed — by laying out
// the files each kill leaves, and requires every reopen to give the same
// answers and to leave one manifest, the run it lists and no snapshot once
// a checkpoint has collected the garbage.
func TestLegacyConversionCrashSweep(t *testing.T) {
	// One full conversion supplies the files the partial states are made of.
	done := t.TempDir()
	legacyDir(t, done)
	d, err := Open(done, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	copyFile := func(dst, src string) {
		t.Helper()
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name               string
		run, manifest, gcd bool
	}{
		{"killed before any step", false, false, false},
		{"run written", true, false, false},
		{"manifest written", true, true, false},
		{"snapshot removed", true, true, true},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			want := legacyDir(t, dir)
			if step.run {
				copyFile(runPath(dir, 1), runPath(done, 1))
			}
			if step.manifest {
				copyFile(manifestPath(dir, 3), manifestPath(done, 3))
			}
			if step.gcd {
				if err := os.Remove(snapPath(dir, 3)); err != nil {
					t.Fatal(err)
				}
			}
			for pass := 0; pass < 2; pass++ {
				d, err := Open(dir, lsmCfg(), memBuild(1))
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				checkState(t, d, want, fmt.Sprintf("pass %d", pass))
				if pass == 1 {
					if err := d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Crash(); err != nil {
					t.Fatal(err)
				}
			}
			st, err := scanDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.snaps) != 0 || len(st.manifests) != 1 || len(st.runs) != 2 {
				t.Fatalf("left behind: %d snapshots, %d manifests, %d runs; want 0, 1 and the base run plus the flushed tail", len(st.snaps), len(st.manifests), len(st.runs))
			}
			d, err := Open(dir, lsmCfg(), memBuild(1))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			checkState(t, d, want, "after the checkpoint")
		})
	}
}
