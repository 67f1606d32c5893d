package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/sst"
)

// dirBytes is every file of dir by name, with its content.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestOpenRefusesSnapshotEngineDir: a directory of the retired
// snapshot-rewrite engine — a snap-<gen>.lix checkpoint and its WAL tail,
// no manifest — is an error of Open and of Create that names the
// checkpoint, and both leave the directory byte for byte as it was.
func TestOpenRefusesSnapshotEngineDir(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap-0000000000000003.lix")
	// The name is the layout: what the checkpoint holds is never read.
	if err := os.WriteFile(snap, []byte("LIXSNAP1 and the records of generation 3"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, _, err := OpenWAL(walPath(dir, 3, 0), 3, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Seq: 301, Op: OpInsert, Key: 5, Val: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	for name, open := range map[string]func() (*Durable, error){
		"Open":   func() (*Durable, error) { return Open(dir, lsmCfg(), memBuild(1)) },
		"Create": func() (*Durable, error) { return Create(dir, lsmCfg(), memBuild(1), nil) },
	} {
		d, err := open()
		if err == nil {
			d.Close()
			t.Fatalf("%s of a snapshot-engine directory succeeded", name)
		}
		if !strings.Contains(err.Error(), snap) {
			t.Errorf("%s error %q does not name %s", name, err, snap)
		}
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused directory changed: %d files before, %d after", len(before), len(after))
	}
}

// parentManifest is a manifest as the previous version wrote it, byte for
// byte: meta {kind: mem}, the empty records section that version still
// wrote, watermark 100, one run (ID 1, 100 live, Seq 100, keys 0..99) and
// the footer's record count 0.
const parentManifest = "4c4958534e415031010f000000000000000100000004006b696e6403006d656d" +
	"9635f34e02080000000000000000000000000000007034c1ec03080000000000" +
	"00006400000000000000e9c43885043400000000000000010000000100000000" +
	"0000006400000000000000000000000000000064000000000000000000000000" +
	"00000063000000000000003dfffa19f008000000000000000000000000000000" +
	"887da7a5"

// TestOpenParentManifest: a directory of the previous version — its
// manifest verbatim, the run it lists and a WAL tail past the watermark —
// reopens to the run's records with the tail over them, and stays a
// store after its next checkpoint rewrites the manifest without the
// records section.
func TestOpenParentManifest(t *testing.T) {
	dir := t.TempDir()
	recs := make([]core.KV, 100)
	want := map[core.Key]core.Value{}
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i), Value: core.Value(i + 1)}
		want[core.Key(i)] = core.Value(i + 1)
	}
	r, ref, err := writeRun(dir, 1, &sst.FileData{Live: recs, Seq: 100})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if ref != (RunRef{ID: 1, Live: 100, Seq: 100, MinKey: 0, MaxKey: 99}) {
		t.Fatalf("the run's manifest entry is %+v, not the fixture's", ref)
	}
	manifest, err := hex.DecodeString(parentManifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(dir, 2), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, _, err := OpenWAL(walPath(dir, 2, 0), 2, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(
		Record{Seq: 99, Op: OpInsert, Key: 3, Val: 333}, // folded into the run already
		Record{Seq: 101, Op: OpInsert, Key: 5, Val: 5555},
		Record{Seq: 102, Op: OpDelete, Key: 7},
		Record{Seq: 103, Op: OpInsert, Key: 1000, Val: 9},
	); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want[5], want[1000] = 5555, 9
	delete(want, 7)

	check := func(d *Durable, when string) {
		t.Helper()
		got := map[core.Key]core.Value{}
		for _, r := range collect(d) {
			got[r.Key] = r.Value
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d records, want %d (key 3 = %d, key 5 = %d, key 7 present %v)",
				when, len(got), len(want), got[3], got[5], got[7] != 0)
		}
	}
	var meta map[string]string
	d, err := Open(dir, lsmCfg(), func(m map[string]string, recs []core.KV) (BuildResult, error) {
		meta = m
		return memBuild(1)(m, recs)
	})
	if err != nil {
		t.Fatalf("open of the previous version's directory: %v", err)
	}
	check(d, "reopened")
	if meta["kind"] != "mem" {
		t.Fatalf("builder saw meta %v, want the manifest's", meta)
	}
	if ri := d.RecoveryInfo(); ri.SnapshotGen != 2 || ri.Runs != 1 || ri.SnapshotRecs != 100 || ri.WALRecs != 4 {
		t.Fatalf("RecoveryInfo = %+v, want generation 2, 1 run of 100 records, 4 WAL records", ri)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	check(d, "after a checkpoint")
}
