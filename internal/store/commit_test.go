package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/lix-go/lix/internal/core"
)

// The commit protocol's suite: what the log promises once a commit has
// returned, what a failed write(2) does to it, and that committers share
// writes. The file seam (logFile) is substituted in place: w.f of an open
// log is swapped for a faultFile around the real file.

// faultFile is a log file whose failAt-th write (1-based) writes only its
// first short bytes and fails, and whose every write first waits for gate
// when there is one.
type faultFile struct {
	logFile
	failAt, short int
	gate          chan struct{}

	mu              sync.Mutex
	writes, waiting int
}

var errInjected = errors.New("injected write failure")

func (f *faultFile) Write(p []byte) (int, error) {
	if f.gate != nil {
		f.mu.Lock()
		f.waiting++
		f.mu.Unlock()
		<-f.gate
	}
	f.mu.Lock()
	f.writes++
	fail := f.writes == f.failAt
	f.mu.Unlock()
	if !fail {
		return f.logFile.Write(p)
	}
	n, _ := f.logFile.Write(p[:min(f.short, len(p))])
	return n, errInjected
}

func kvs(base, n int) []core.KV {
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(base + i), Value: core.Value(base + i + 1)}
	}
	return recs
}

// puts, dels and gets are upserts of recs, deletes of keys and gets of
// keys as the ops of a batch.
func puts(recs []core.KV) []core.Op {
	ops := make([]core.Op, len(recs))
	for i, r := range recs {
		ops[i] = core.Op{Kind: core.OpPut, Key: r.Key, Val: r.Value}
	}
	return ops
}

func dels(keys ...core.Key) []core.Op { return keyOps(core.OpDel, keys) }
func gets(keys ...core.Key) []core.Op { return keyOps(core.OpGet, keys) }

func keyOps(kind core.OpKind, keys []core.Key) []core.Op {
	ops := make([]core.Op, len(keys))
	for i, k := range keys {
		ops[i] = core.Op{Kind: kind, Key: k}
	}
	return ops
}

// apply is d.Apply with its answers dropped: the uncommitted write.
func apply(d *Durable, ops []core.Op, sp *core.Span) error {
	return d.Apply(ops, make([]core.Value, len(ops)), make([]bool, len(ops)), sp)
}

// applyCommit is apply followed by the commit that acknowledges it: the
// committed batch write.
func applyCommit(d *Durable, ops []core.Op, sp *core.Span) error {
	if err := apply(d, ops, sp); err != nil {
		return err
	}
	return d.Commit(sp)
}

// TestWALWriteErrorIsSticky: after a failed or short write(2) the file may
// end in a torn frame, and recovery cuts the log there — so a frame written
// behind it would be acknowledged and then dropped. The log must refuse
// every later append and commit with the first error, and what it
// committed before must be all that a reopen finds.
func TestWALWriteErrorIsSticky(t *testing.T) {
	for _, short := range []int{0, 5, insertFrame + 3} {
		t.Run(fmt.Sprintf("short=%d", short), func(t *testing.T) {
			path := t.TempDir() + "/wal.lix"
			w, _, _, err := OpenWAL(path, 1, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.f = &faultFile{logFile: w.f, failAt: 2, short: short}
			commit := func(recs ...Record) error {
				off, err := w.Append(recs...)
				if err != nil {
					return err
				}
				return w.Commit(off, false, nil)
			}
			good := testRecords(3)
			if err := commit(good...); err != nil {
				t.Fatalf("first commit: %v", err)
			}
			first := commit(Record{Seq: 10, Op: OpInsert, Key: 10, Val: 1}, Record{Seq: 11, Op: OpInsert, Key: 11, Val: 1})
			if !errors.Is(first, errInjected) {
				t.Fatalf("commit over the failing write = %v, want the injected error", first)
			}
			// The file would take this write; the log must not offer it.
			if _, err := w.Append(Record{Seq: 12, Op: OpInsert, Key: 12, Val: 1}); err != first {
				t.Fatalf("append after the failure = %v, want the first error %v", err, first)
			}
			if err := w.Commit(w.End(), false, nil); err != first {
				t.Fatalf("commit after the failure = %v, want the first error %v", err, first)
			}
			if err := w.Commit(w.End(), true, nil); err != first {
				t.Fatalf("sync after the failure = %v, want the first error %v", err, first)
			}
			if got := w.Writes(); got != 2 {
				t.Fatalf("%d write(2)s, want 2: nothing may be written behind a torn frame", got)
			}
			w.Crash()

			_, recs, _, err := OpenWAL(path, 1, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			// A short write that happened to end on a frame boundary leaves
			// whole frames of the failed commit behind: unacknowledged, and
			// allowed to survive. Nothing acknowledged may be missing.
			if len(recs) < len(good) || len(recs) > len(good)+short/insertFrame {
				t.Fatalf("reopen found %d records, want the %d committed (plus at most %d whole unacknowledged frames)",
					len(recs), len(good), short/insertFrame)
			}
			for i, r := range good {
				if recs[i] != r {
					t.Fatalf("record %d = %v, want %v", i, recs[i], r)
				}
			}
		})
	}
}

// TestDurableFailedCommitLatches drives the same failure through the
// store: the write whose commit fails returns the error and latches it,
// every later write and commit returns the latched error and applies
// nothing, the one write that was applied before its commit failed stays
// visible in memory (the stated weakening: unacknowledged, served by a
// store whose Err is set), and a reopen finds exactly the acknowledged
// writes.
func TestDurableFailedCommitLatches(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncNever, CheckpointEvery: -1}
	d, err := Open(dir, cfg, memBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	d.wal.f = &faultFile{logFile: d.wal.f, failAt: 3, short: 7}
	if err := d.Put(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := applyCommit(d, puts(kvs(100, 5)), nil); err != nil {
		t.Fatal(err)
	}
	if err := apply(d, puts(kvs(200, 3)), nil); err != nil {
		t.Fatalf("an uncommitted batch does no I/O, got %v", err)
	}
	first := d.Commit(nil)
	if !errors.Is(first, errInjected) || d.Err() != first {
		t.Fatalf("Commit = %v, Err = %v; want the injected error, latched", first, d.Err())
	}
	if err := d.Commit(nil); err != first {
		t.Fatalf("second Commit = %v: records applied before the failure are still not in the log", err)
	}
	oks := []bool{true}
	for name, err := range map[string]error{
		"Put":          d.Put(2, 20),
		"Apply+Commit": applyCommit(d, puts(kvs(300, 2)), nil),
		"Apply":        apply(d, puts(kvs(400, 2)), nil),
		"Apply del":    d.Apply(dels(1), make([]core.Value, 1), oks, nil),
		"Sync":         d.Sync(),
	} {
		if err != first {
			t.Errorf("%s on the latched store = %v, want %v", name, err, first)
		}
	}
	if _, ok := d.Get(200); !ok {
		t.Error("the batch applied before its commit failed is gone from memory")
	}
	if _, ok := d.Get(2); ok {
		t.Error("a write refused by the latched store was applied")
	}
	if v, ok := d.Get(1); !ok || v != 10 || oks[0] {
		t.Errorf("Get(1) = (%d, %v), deleted %v; the refused delete ran", v, ok, oks[0])
	}
	d.Crash()

	d2, err := Open(dir, cfg, memBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 6 {
		t.Fatalf("reopen found %d records, want the 6 acknowledged", d2.Len())
	}
}

// multiCommit opens a store, acknowledges a few single writes, then runs
// inserts, deletes and overwrites as uncommitted batches behind ONE commit,
// and crashes. It returns the log's bytes, the offset the multi-record
// commit began at, and the records in log order.
func multiCommit(t *testing.T, dir string, cfg Config) (data []byte, from int, recs []Record) {
	t.Helper()
	d, err := Open(dir, cfg, memBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Put(core.Key(i), core.Value(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	from, writes := int(d.wal.End()), d.wal.Writes()
	if err := apply(d, puts(kvs(2, 6)), nil); err != nil { // overwrites 2 and 3
		t.Fatal(err)
	}
	if err := apply(d, dels(0, 5, 99), nil); err != nil {
		t.Fatal(err)
	}
	if err := apply(d, puts([]core.KV{{Key: 5, Value: 55}, {Key: 40, Value: 1}}), nil); err != nil {
		t.Fatal(err)
	}
	if got := d.wal.Writes() - writes; got != 0 {
		t.Fatalf("%d write(2)s before the commit, want 0", got)
	}
	if err := d.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if got := d.wal.Writes() - writes; got != 1 {
		t.Fatalf("three batches behind one commit cost %d write(2)s, want 1", got)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(walPath(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	recs, body := DecodeRecords(data[walHeaderSize:])
	if walHeaderSize+body != len(data) || len(recs) != 4+6+3+2 {
		t.Fatalf("the log holds %d records in %d of %d bytes, want 15 and all", len(recs), walHeaderSize+body, len(data))
	}
	return data, from, recs
}

// TestCommitTornAtEveryOffset tears the one write(2) of a multi-record
// commit at every byte: whatever prefix of it reached the file, recovery
// must come up with the state of a whole number of its records applied in
// log order over everything committed before — never a later record
// without an earlier one, never part of one.
func TestCommitTornAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncNever, CheckpointEvery: -1}
	data, from, recs := multiCommit(t, dir, cfg)

	// ends[i] is the file offset at which record i is whole.
	ends := make([]int, len(recs))
	off := walHeaderSize
	for i, r := range recs {
		off += len(appendRecord(nil, r))
		ends[i] = off
	}
	for cut := from; cut <= len(data); cut++ {
		if err := os.WriteFile(walPath(dir, 1, 0), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[core.Key]core.Value{}
		for i, r := range recs {
			if ends[i] > cut {
				break
			}
			if r.Op == OpInsert {
				want[r.Key] = r.Val
			} else {
				delete(want, r.Key)
			}
		}
		d, err := Open(dir, cfg, memBuild(4))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := collect(d)
		d.Crash()
		if len(got) != len(want) {
			t.Fatalf("cut %d: %d records, want %d", cut, len(got), len(want))
		}
		for _, r := range got {
			if v, ok := want[r.Key]; !ok || v != r.Value {
				t.Fatalf("cut %d: key %d = %d, want (%d, %v)", cut, r.Key, r.Value, v, ok)
			}
		}
	}
}

// TestCommittedWritesSurviveCrash: every record whose commit returned —
// through whichever entry point — is in the file, so Crash (which drops
// the buffer and syncs nothing) loses none of them; a batch that was never
// committed is exactly what it drops.
func TestCommittedWritesSurviveCrash(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Fsync: policy, CheckpointEvery: -1}
			d, err := Open(dir, cfg, memBuild(4))
			if err != nil {
				t.Fatal(err)
			}
			steps := []error{
				d.Put(1, 1),
				applyCommit(d, puts(kvs(10, 2*walChunk+5)), nil), // more than one chunk of the buffer
				applyCommit(d, dels(10, 11), nil),
				apply(d, puts(kvs(5000, 3)), nil),
				apply(d, dels(12, 5001), nil),
				d.Commit(nil),
			}
			d.Insert(2, 2)
			d.Delete(13)
			for i, err := range steps {
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			want := collect(d)
			if err := apply(d, puts(kvs(9000, 4)), nil); err != nil {
				t.Fatal(err)
			}
			if err := d.Crash(); err != nil {
				t.Fatal(err)
			}
			d2, err := Open(dir, cfg, memBuild(4))
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			got := collect(d2)
			if len(got) != len(want) {
				t.Fatalf("%d records after the crash, want the %d committed", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestBufferReachesTheFileWithoutACommit: the three things besides Commit
// that must write the buffer out — the checkpoint cut (before it rotates),
// Sync and Close — and the buffer committing itself at walBufMax.
func TestBufferReachesTheFileWithoutACommit(t *testing.T) {
	cfg := Config{Fsync: SyncNever, CheckpointEvery: -1}
	for name, flush := range map[string]func(*Durable) error{
		"checkpoint": (*Durable).Checkpoint,
		"sync":       (*Durable).Sync,
		"close":      (*Durable).Close,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir, cfg, memBuild(4))
			if err != nil {
				t.Fatal(err)
			}
			if err := apply(d, puts(kvs(0, 10)), nil); err != nil {
				t.Fatal(err)
			}
			if err := flush(d); err != nil {
				t.Fatal(err)
			}
			d.Crash()
			d2, err := Open(dir, cfg, memBuild(4))
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if d2.Len() != 10 {
				t.Fatalf("%d of 10 records survived", d2.Len())
			}
		})
	}
	t.Run("self-commit", func(t *testing.T) {
		d, err := Open(t.TempDir(), cfg, memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		const batches = 4 * walBufMax / (8 * insertFrame)
		for i := 0; i < batches; i++ {
			if err := apply(d, puts(kvs(8*i, 8)), nil); err != nil {
				t.Fatal(err)
			}
			if ahead := d.wal.End() - d.wal.written.Load(); ahead >= walBufMax+8*insertFrame {
				t.Fatalf("after batch %d memory is %d bytes ahead of the file, bound %d", i, ahead, walBufMax)
			}
		}
		if got := d.wal.Writes(); got < 3 || got > 4 {
			t.Fatalf("%d self-commits for 4 buffers' worth of records", got)
		}
	})
}

// TestCommittersCombine holds the first committer inside its write(2)
// while the others append and queue behind it: the next one to get the
// file writes all of their records at once and the rest return without a
// syscall — N commits, two writes, nothing lost.
func TestCommittersCombine(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncNever, CheckpointEvery: -1}
	d, err := Open(dir, cfg, memBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	file := &faultFile{logFile: d.wal.f, gate: gate}
	d.wal.f = file
	const writers = 8
	var wg sync.WaitGroup
	put := func(k int) {
		defer wg.Done()
		if err := d.Put(core.Key(k), core.Value(k)); err != nil {
			t.Errorf("put %d: %v", k, err)
		}
	}
	wg.Add(writers)
	go put(0)
	waitFor(t, "the first committer to reach the file", func() bool {
		file.mu.Lock()
		defer file.mu.Unlock()
		return file.waiting == 1
	})
	for k := 1; k < writers; k++ {
		go put(k)
	}
	waitFor(t, "the others to append", func() bool { return d.wal.Appended() == writers })
	close(gate)
	wg.Wait()
	if got := d.wal.Writes(); got != 2 {
		t.Errorf("%d commits cost %d write(2)s, want 2", writers, got)
	}

	// Free-running: fewer writes than commits is likely, never more.
	const each = 200
	before := d.wal.Writes()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := d.Put(core.Key(1000+g*each+i), 1); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := d.wal.Writes() - before; got > writers*each {
		t.Errorf("%d commits cost %d write(2)s", writers*each, got)
	}
	d.Crash()
	d2, err := Open(dir, cfg, memBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != writers+writers*each {
		t.Fatalf("%d records after the crash, want %d", d2.Len(), writers+writers*each)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestApplyRefused: a store that cannot log a mixed batch — latched, or
// with its log closed under it so that the append fails — applies none of
// its writes, answers its gets from memory (as they stood before the
// batch), reports every delete false, and returns the error, which a
// failed append latches.
func TestApplyRefused(t *testing.T) {
	for _, segments := range []int{1, 4} {
		for _, how := range []string{"latched", "append"} {
			t.Run(fmt.Sprintf("segments=%d/%s", segments, how), func(t *testing.T) {
				d, err := Open(t.TempDir(), Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(segments))
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				if err := applyCommit(d, puts(kvs(1, 2)), nil); err != nil { // 1→2, 2→3
					t.Fatal(err)
				}
				if how == "latched" {
					d.fail(errInjected)
				} else {
					d.wal.Crash()
				}
				ops := []core.Op{
					{Kind: core.OpGet, Key: 1}, {Kind: core.OpPut, Key: 1, Val: 100}, {Kind: core.OpGet, Key: 1},
					{Kind: core.OpDel, Key: 2}, {Kind: core.OpGet, Key: 2},
					{Kind: core.OpPut, Key: 9, Val: 9}, {Kind: core.OpGet, Key: 9},
				}
				vals, oks := make([]core.Value, len(ops)), make([]bool, len(ops))
				for i := range oks {
					oks[i] = true
				}
				err = d.Apply(ops, vals, oks, nil)
				if err == nil || err != d.Err() {
					t.Fatalf("Apply = %v, Err = %v; want the store's error, latched", err, d.Err())
				}
				want := []struct {
					v  core.Value
					ok bool
				}{{2, true}, {}, {2, true}, {0, false}, {3, true}, {}, {0, false}}
				for i, w := range want {
					if ops[i].Kind != core.OpPut && (oks[i] != w.ok || (w.ok && vals[i] != w.v)) {
						t.Errorf("op %d (%v %d) = (%d, %v), want (%d, %v)", i, ops[i].Kind, ops[i].Key, vals[i], oks[i], w.v, w.ok)
					}
				}
				if got := collect(d); len(got) != 2 || got[0] != kvs(1, 2)[0] || got[1] != kvs(1, 2)[1] {
					t.Errorf("state after the refused batch = %v, want %v", got, kvs(1, 2))
				}
			})
		}
	}
}
