package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

func testKVs(n int) []core.KV {
	out := make([]core.KV, n)
	for i := range out {
		out[i] = core.KV{Key: core.Key(i * 3), Value: core.Value(i * 11)}
	}
	return out
}

// testRuns is a run list of n entries, newest first.
func testRuns(n int) []RunRef {
	out := make([]RunRef, n)
	for i := range out {
		id := uint64(n - i)
		out[i] = RunRef{ID: id, Live: 10 * id, Dead: id, Seq: 100 * id, MinKey: core.Key(id), MaxKey: core.Key(1000 * id)}
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.lix")
	in := &SnapshotData{
		Meta:    map[string]string{"kind": "btree", "shards": "4"},
		LastSeq: 42,
		Runs:    testRuns(20),
	}
	if err := WriteSnapshot(path, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if out.LastSeq != 42 || !reflect.DeepEqual(out.Runs, in.Runs) {
		t.Fatalf("round trip: seq=%d runs=%v", out.LastSeq, out.Runs)
	}
	if out.Meta["kind"] != "btree" || out.Meta["shards"] != "4" {
		t.Fatalf("meta %v", out.Meta)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.lix")
	if err := WriteSnapshot(path, &SnapshotData{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := ReadSnapshot(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(out.Runs) != 0 || len(out.Meta) != 0 || out.LastSeq != 0 {
		t.Fatalf("empty snapshot decoded as %+v", out)
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	s := &SnapshotData{
		Meta: map[string]string{"b": "2", "a": "1", "c": "3"},
		Runs: testRuns(10),
	}
	if !bytes.Equal(encodeSnapshot(s), encodeSnapshot(s)) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.lix")
	if err := WriteSnapshot(path, &SnapshotData{Runs: testRuns(5), LastSeq: 7}); err != nil {
		t.Fatal(err)
	}
	clean, _ := os.ReadFile(path)

	cases := map[string]func([]byte) []byte{
		"truncated":      func(b []byte) []byte { return b[:len(b)-9] },
		"missing footer": func(b []byte) []byte { return b[:len(b)-8-9-4] },
		"flipped byte":   func(b []byte) []byte { b[len(snapMagic)+40] ^= 1; return b },
		"bad magic":      func(b []byte) []byte { b[0] = 'X'; return b },
		"empty":          func(b []byte) []byte { return nil },
	}
	for name, mut := range cases {
		data := mut(append([]byte(nil), clean...))
		if _, err := DecodeSnapshot(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

// TestSnapshotRejectsUnsortedRecords: the records section is read only
// empty, as the manifests of earlier versions carry it, so a checkpoint of
// the retired snapshot-rewrite engine — records in it, unsorted or not,
// and their count in the footer — does not decode.
func TestSnapshotRejectsUnsortedRecords(t *testing.T) {
	records := func(kvs ...core.KV) []byte {
		p := binary.LittleEndian.AppendUint64(nil, uint64(len(kvs)))
		for _, r := range kvs {
			p = binary.LittleEndian.AppendUint64(p, r.Key)
			p = binary.LittleEndian.AppendUint64(p, r.Value)
		}
		return p
	}
	file := func(recs []byte, count uint64) []byte {
		b := appendSection([]byte(snapMagic), secRecords, recs)
		return appendSection(b, secFooter, binary.LittleEndian.AppendUint64(nil, count))
	}
	if _, err := DecodeSnapshot(file(records(), 0)); err != nil {
		t.Fatalf("the empty records section of an earlier manifest rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"unsorted":     file(records(core.KV{Key: 5, Value: 1}, core.KV{Key: 3, Value: 2}), 2),
		"sorted":       file(records(core.KV{Key: 3, Value: 2}, core.KV{Key: 5, Value: 1}), 2),
		"footer count": file(records(), 2),
	} {
		if _, err := DecodeSnapshot(data); err == nil {
			t.Errorf("%s: a file with records accepted", name)
		}
	}
}

func TestWriteSnapshotLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(filepath.Join(dir, "snap.lix"), &SnapshotData{Runs: testRuns(5)}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 || entries[0].Name() != "snap.lix" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want just snap.lix", names)
	}
}
