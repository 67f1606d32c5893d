package store

import (
	"math/rand"
	"os"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// Crash-injection suite: every test builds a store, kills it without a
// clean shutdown, damages the files the way a real crash can (torn tail
// at an arbitrary byte offset, flipped bits, missing rename), reopens,
// and checks that recovery restores exactly the committed prefix.

// insertFrame is the on-disk size of one insert record's frame.
const insertFrame = walFrameHdr + insertPayload

// walBodyAt computes, for a WAL holding only insert records, how many
// records survive a cut at byte offset cut — independently of the
// decoder under test.
func committedAt(cut int) int {
	if cut <= walHeaderSize {
		return 0
	}
	return (cut - walHeaderSize) / insertFrame
}

func TestCrashTornTailRandomOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		const n = 200
		d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := d.Put(core.Key(i), core.Value(i*10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}

		// Kill the tail at a random byte offset, anywhere in the file.
		path := walPath(dir, 1, 0)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := rng.Intn(len(data) + 1)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := committedAt(cut)

		d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatalf("trial %d cut %d: recovery aborted: %v", trial, cut, err)
		}
		if d2.Len() != want {
			t.Fatalf("trial %d cut %d: recovered %d records, want %d", trial, cut, d2.Len(), want)
		}
		// The committed prefix is intact, in order, with the right values.
		for i := 0; i < want; i++ {
			if v, ok := d2.Get(core.Key(i)); !ok || v != core.Value(i*10) {
				t.Fatalf("trial %d: committed record %d lost (%d,%v)", trial, i, v, ok)
			}
		}
		// Writes after recovery continue from the truncation point.
		if err := d2.Put(core.Key(n+trial), 1); err != nil {
			t.Fatalf("trial %d: post-recovery write: %v", trial, err)
		}
		d2.Close()
	}
}

func TestCrashBitFlipTruncatesNotAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		const n = 150
		d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			d.Put(core.Key(i), core.Value(i))
		}
		d.Crash()

		path := walPath(dir, 1, 0)
		data, _ := os.ReadFile(path)
		// Flip one random bit somewhere after the header.
		pos := walHeaderSize + rng.Intn(len(data)-walHeaderSize)
		data[pos] ^= 1 << uint(rng.Intn(8))
		os.WriteFile(path, data, 0o644)
		want := committedAt(pos)

		d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatalf("trial %d flip@%d: recovery aborted: %v", trial, pos, err)
		}
		// Everything strictly before the damaged frame survives; the
		// damaged frame and all after it are truncated.
		if d2.Len() != want {
			t.Fatalf("trial %d flip@%d: recovered %d, want %d", trial, pos, d2.Len(), want)
		}
		d2.Close()
	}
}

// TestCrashMultiSegmentMergedPrefix reopens the layout of the versions
// that kept one log per segment: four wal-<gen>-00k.lix files of one
// generation, written here with the WAL codec (sequence numbers global,
// each key in the file its segment routes to, as those versions wrote
// them), each torn independently at a random offset. Recovery reads every
// file of the generation and must yield the per-file committed prefixes
// merged by sequence number; the store then appends to segment 0 alone,
// and the next checkpoint folds all four files into a run and removes them.
func TestCrashMultiSegmentMergedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{Fsync: SyncNever, CheckpointEvery: -1}
	for trial := 0; trial < 10; trial++ {
		dir := t.TempDir()
		const segs, n = 4, 400
		d, err := Open(dir, cfg, memBuild(segs)) // the manifest, and an empty segment 0
		if err != nil {
			t.Fatal(err)
		}
		d.Crash()
		files := make([][]byte, segs)
		for seg := range files {
			files[seg] = walHeader(1, seg)
		}
		for i := 0; i < n; i++ {
			k := core.Key(i % (n / 2)) // every key is written twice: the later sequence number wins
			seg := int(k) % segs
			files[seg] = appendRecord(files[seg], Record{Seq: uint64(i + 1), Op: OpInsert, Key: k, Val: core.Value(i + 1)})
		}

		// Tear each file at a random offset, then compute the expected
		// surviving state: per-file committed prefixes merged by sequence
		// number.
		type kv struct {
			seq uint64
			val core.Value
		}
		expect := map[core.Key]kv{}
		for seg, data := range files {
			cut := rng.Intn(len(data) + 1)
			if err := os.WriteFile(walPath(dir, 1, seg), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			keep := committedAt(cut)
			recs, _ := DecodeRecords(data[walHeaderSize : walHeaderSize+keep*insertFrame])
			for _, r := range recs {
				if prev, ok := expect[r.Key]; !ok || r.Seq > prev.seq {
					expect[r.Key] = kv{seq: r.Seq, val: r.Val}
				}
			}
		}
		check := func(d *Durable, when string) {
			t.Helper()
			if d.Len() != len(expect) {
				t.Fatalf("trial %d, %s: %d records, want %d", trial, when, d.Len(), len(expect))
			}
			for k, e := range expect {
				if v, ok := d.Get(k); !ok || v != e.val {
					t.Fatalf("trial %d, %s: key %d: got (%d,%v) want %d", trial, when, k, v, ok, e.val)
				}
			}
		}

		d2, err := Open(dir, cfg, memBuild(segs))
		if err != nil {
			t.Fatalf("trial %d: recovery aborted: %v", trial, err)
		}
		check(d2, "reopened")
		if err := d2.Put(1<<40, 7); err != nil {
			t.Fatal(err)
		}
		expect[1<<40] = kv{val: 7}
		if err := d2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, err := scanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.wals) != 1 || len(st.wals[2]) != 1 {
			t.Fatalf("trial %d: log files after the checkpoint: %v, want generation 2's one", trial, st.wals)
		}
		d2.Crash()
		d3, err := Open(dir, cfg, memBuild(segs))
		if err != nil {
			t.Fatal(err)
		}
		check(d3, "after a checkpoint and a second reopen")
		d3.Close()
	}
}

func TestCrashSyncAlwaysLosesNothing(t *testing.T) {
	dir := t.TempDir()
	const n = 100
	d, err := Open(dir, Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := d.Put(core.Key(i), core.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	d2, err := Open(dir, Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// Every Put returned after its fsync, so a crash loses nothing.
	if d2.Len() != n {
		t.Fatalf("SyncAlways crash lost records: %d/%d", d2.Len(), n)
	}
}

func TestCrashDuringCheckpointRotation(t *testing.T) {
	// Simulate the two dangerous checkpoint crash points by constructing
	// the directory states a kill would leave behind. What is renamed into
	// place at a checkpoint is the manifest, a file of the snapshot codec.
	t.Run("new wal created, snapshot never renamed", func(t *testing.T) {
		dir := t.TempDir()
		d, _ := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		for i := 0; i < 50; i++ {
			d.Put(core.Key(i), core.Value(i))
		}
		d.Crash()
		// The crash happened right after the gen-2 WAL was created: an
		// empty gen-2 segment exists, no gen-2 manifest.
		if err := os.WriteFile(walPath(dir, 2, 0), walHeader(2, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		// A stray manifest temp file may also linger.
		os.WriteFile(manifestPath(dir, 2)+".tmp-123", []byte("garbage"), 0o644)

		d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer d2.Close()
		if d2.Len() != 50 {
			t.Fatalf("recovered %d records, want 50", d2.Len())
		}
	})

	t.Run("snapshot renamed, old generation not yet removed", func(t *testing.T) {
		dir := t.TempDir()
		d, _ := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		for i := 0; i < 50; i++ {
			d.Put(core.Key(i), core.Value(i))
		}
		// A real checkpoint, then resurrect the old generation's files to
		// simulate a crash before GC finished.
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 50; i < 60; i++ {
			d.Put(core.Key(i), core.Value(i))
		}
		d.Crash()
		stale := walHeader(1, 0)
		for i := 0; i < 5; i++ {
			stale = appendRecord(stale, Record{Seq: uint64(i + 1), Op: OpInsert, Key: core.Key(i), Val: 999})
		}
		if err := os.WriteFile(walPath(dir, 1, 0), stale, 0o644); err != nil {
			t.Fatal(err)
		}

		d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer d2.Close()
		// The stale generation predates the manifest and must be ignored:
		// values come from the run + gen-2 WAL, not the old log.
		if d2.Len() != 60 {
			t.Fatalf("recovered %d records, want 60", d2.Len())
		}
		if v, _ := d2.Get(0); v == 999 {
			t.Fatal("pre-manifest WAL generation replayed over the runs")
		}
	})
}
