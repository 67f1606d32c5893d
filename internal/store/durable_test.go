package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// memIndex is a locked ordered-map index for exercising the durable
// wrapper without dragging a real index kind into the package's tests.
type memIndex struct {
	mu sync.RWMutex
	m  map[core.Key]core.Value
}

func newMemIndex(recs []core.KV) *memIndex {
	ix := &memIndex{m: make(map[core.Key]core.Value, len(recs))}
	for _, r := range recs {
		ix.m[r.Key] = r.Value
	}
	return ix
}

func (ix *memIndex) Get(k core.Key) (core.Value, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	v, ok := ix.m[k]
	return v, ok
}

func (ix *memIndex) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	ix.mu.RLock()
	keys := make([]core.Key, 0, len(ix.m))
	for k := range ix.m {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	ix.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := 0
	for _, k := range keys {
		v, ok := ix.Get(k)
		if !ok {
			continue
		}
		n++
		if !fn(k, v) {
			break
		}
	}
	return n
}

func (ix *memIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.m)
}

func (ix *memIndex) Stats() core.Stats {
	return core.Stats{Name: "mem", Count: ix.Len()}
}

func (ix *memIndex) Insert(k core.Key, v core.Value) {
	ix.mu.Lock()
	ix.m[k] = v
	ix.mu.Unlock()
}

func (ix *memIndex) Delete(k core.Key) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	_, ok := ix.m[k]
	delete(ix.m, k)
	return ok
}

// memBuild returns a BuildFunc producing a memIndex with the given
// segment count (keys route by modulo; stable, which is all Durable
// needs).
func memBuild(segments int) BuildFunc {
	return func(meta map[string]string, recs []core.KV) (BuildResult, error) {
		res := BuildResult{Index: newMemIndex(recs), Segments: segments}
		if segments > 1 {
			res.ConcurrentReads = true
			res.Route = func(k core.Key) int { return int(k % core.Key(segments)) }
		}
		return res, nil
	}
}

func collect(d *Durable) []core.KV {
	var out []core.KV
	d.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		out = append(out, core.KV{Key: k, Value: v})
		return true
	})
	return out
}

func TestDurableBasic(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Put(core.Key(i), core.Value(i*2)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if ok, err := d.Del(50); err != nil || !ok {
		t.Fatalf("del: ok=%v err=%v", ok, err)
	}
	if ok, err := d.Del(1000); err != nil || ok {
		t.Fatalf("del missing: ok=%v err=%v", ok, err)
	}
	if d.Len() != 99 {
		t.Fatalf("len %d, want 99", d.Len())
	}
	if v, ok := d.Get(7); !ok || v != 14 {
		t.Fatalf("get(7) = %d,%v", v, ok)
	}
	if _, ok := d.Get(50); ok {
		t.Fatal("deleted key still visible")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen: the WAL replays into an identical index.
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Len() != 99 {
		t.Fatalf("recovered len %d, want 99", d2.Len())
	}
	info := d2.RecoveryInfo()
	if info.WALRecs != 102 {
		t.Fatalf("recovery replayed %d records, want 102", info.WALRecs)
	}
	if v, ok := d2.Get(7); !ok || v != 14 {
		t.Fatalf("recovered get(7) = %d,%v", v, ok)
	}
}

func TestDurableCheckpointRotatesAndGCs(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	gen := d.Gen()
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if d.Gen() != gen+1 {
		t.Fatalf("gen %d after checkpoint, want %d", d.Gen(), gen+1)
	}
	// Post-checkpoint mutations land in the new generation's WAL.
	for i := 200; i < 250; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	d.Close()

	// Old generation files are gone; exactly one manifest, the run it
	// lists and the current WAL remain.
	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.manifests) != 1 || len(st.runs) != 1 || len(st.wals) != 1 {
		t.Fatalf("post-GC dir: %d manifests %d runs %d wal gens", len(st.manifests), len(st.runs), len(st.wals))
	}

	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Len() != 250 {
		t.Fatalf("recovered len %d, want 250", d2.Len())
	}
	info := d2.RecoveryInfo()
	if info.SnapshotRecs != 200 || info.WALRecs != 50 {
		t.Fatalf("recovery split snap=%d wal=%d, want 200/50", info.SnapshotRecs, info.WALRecs)
	}
}

func TestDurableCreateSeedsAndRefuses(t *testing.T) {
	dir := t.TempDir()
	seed := testKVs(500)
	d, err := Create(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1), seed)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if d.Len() != 500 {
		t.Fatalf("seeded len %d", d.Len())
	}
	d.Close()
	if _, err := Create(dir, Config{}, memBuild(1), nil); err == nil {
		t.Fatal("second Create on a populated dir must fail")
	}
	// The seed is durable without any WAL record.
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Len() != 500 {
		t.Fatalf("recovered seed len %d", d2.Len())
	}
}

func TestDurableMetaPersists(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fsync: SyncNever, CheckpointEvery: -1, Meta: map[string]string{"kind": "mem", "x": "1"}}
	d, err := Create(dir, cfg, memBuild(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Put(1, 1)
	d.Close()

	var gotMeta map[string]string
	build := func(meta map[string]string, recs []core.KV) (BuildResult, error) {
		gotMeta = meta
		return memBuild(1)(meta, recs)
	}
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, build)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if gotMeta["kind"] != "mem" || gotMeta["x"] != "1" {
		t.Fatalf("builder saw meta %v", gotMeta)
	}
	if d2.Meta()["kind"] != "mem" {
		t.Fatalf("Meta() = %v", d2.Meta())
	}
}

func TestDurableSegmentedConcurrent(t *testing.T) {
	dir := t.TempDir()
	const segs = 4
	d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(segs))
	if err != nil {
		t.Fatal(err)
	}
	if d.Segments() != segs {
		t.Fatalf("segments %d", d.Segments())
	}
	const writers, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := core.Key(g*each + i)
				if err := d.Put(k, core.Value(k*3)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i%10 == 9 {
					d.Del(k) // exercise cross-op ordering per key
				}
			}
		}(g)
	}
	wg.Wait()
	want := collect(d)
	d.Close()

	// Parallel multi-segment recovery merges by seq into the same state.
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(segs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	got := collect(d2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestDurableSegmentCountChangeAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	d.Close()
	// Reopening with a different segmentation must still recover all
	// records: recovery merges every segment by seq regardless of layout.
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 300 {
		t.Fatalf("recovered %d records across segment-count change", d2.Len())
	}
}

func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics("auto")
	d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: 100, Metrics: m}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	// The background checkpointer must rotate at least once; it runs
	// asynchronously, so poll with a generous deadline.
	deadline := time.Now().Add(5 * time.Second)
	for d.Gen() == 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.Gen() == 1 {
		t.Fatal("background checkpoint never fired")
	}
	d.Close()
	// A checkpoint takes 100 logged records to earn: the signals writers
	// send while one is cutting must not buy a second, near-empty one.
	if n := m.Events.Count(obs.EvCheckpoint); n > 10 {
		t.Fatalf("%d checkpoints for 1000 records at one per 100", n)
	}
}

func TestDurableObservability(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics("dur")
	d, err := Open(dir, Config{Fsync: SyncAlways, CheckpointEvery: -1, Metrics: m}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if m.Events.Count(obs.EvWALFlush) == 0 {
		t.Fatal("no wal_flush events under SyncAlways")
	}
	if m.Events.Count(obs.EvCheckpoint) != 1 {
		t.Fatalf("checkpoint events %d", m.Events.Count(obs.EvCheckpoint))
	}
	if m.FsyncNS.Snapshot().Count == 0 {
		t.Fatal("fsync histogram empty")
	}

	m2 := obs.NewMetrics("dur2")
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1, Metrics: m2}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	d2.Close()
	if m2.Events.Count(obs.EvRecovery) != 1 {
		t.Fatalf("recovery events %d", m2.Events.Count(obs.EvRecovery))
	}
}

func TestDurableStatsWrapped(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Put(1, 1)
	st := d.Stats()
	if !strings.HasPrefix(st.Name, "durable(") {
		t.Fatalf("stats name %q", st.Name)
	}
	if st.IndexBytes == 0 {
		t.Fatal("stats does not count WAL bytes")
	}
}

// TestDurableCorruptSnapshotFallsBack: a manifest that does not decode is
// one that was never made durable (it is published by rename, and the
// generation before it is removed only afterwards), so recovery skips it,
// says so in CorruptSnapshots, and serves the previous generation's
// manifest plus the WAL from there on — every record, not an error.
func TestDurableCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 120; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}

	// The crash came while the next checkpoint was publishing: the WAL had
	// rotated and a manifest of generation 3 is in place but torn.
	if err := os.WriteFile(walPath(dir, 3, 0), walHeader(3, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(manifestPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	good[len(good)/2] ^= 0xff
	if err := os.WriteFile(manifestPath(dir, 3), good, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatalf("open with corrupt manifest: %v", err)
	}
	defer d2.Close()
	if ri := d2.RecoveryInfo(); ri.CorruptSnapshots != 1 || ri.SnapshotGen != 2 {
		t.Fatalf("RecoveryInfo = %+v, want 1 corrupt manifest skipped and generation 2 loaded", ri)
	}
	if d2.Len() != 120 {
		t.Fatalf("recovered %d records, want 120", d2.Len())
	}
}

func TestScanDirIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "snap-zzzz.lix"), []byte("x"), 0o644)
	d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatalf("open with foreign files: %v", err)
	}
	d.Close()
}

// batchParallelMin is the batch size from which a sharded index under the
// store fans a batch out over goroutines (the shard package's constant of
// the same name); the batch tests run on both sides of it.
const batchParallelMin = 512

// TestDurableBatchErrorSurface pins the write error contract. Crash
// closes the WAL file descriptors under a live store — the nearest thing
// to a dead disk — after which every write entry point must say so: the
// first failing call returns the I/O error, every later call returns that
// same error latched in Err, for a single-record batch and on both sides
// of the size at which a sharded index fans a batch out (batchParallelMin),
// and nothing from a failed batch becomes visible to Get.
func TestDurableBatchErrorSurface(t *testing.T) {
	type write struct {
		name string
		do   func(d *Durable, base core.Key, n int) error
	}
	recsFrom := func(base core.Key, n int) []core.KV {
		recs := make([]core.KV, n)
		for i := range recs {
			recs[i] = core.KV{Key: base + core.Key(i), Value: 7}
		}
		return recs
	}
	writes := []write{
		{"ApplyPuts", func(d *Durable, base core.Key, n int) error {
			return applyCommit(d, puts(recsFrom(base, n)), nil)
		}},
		{"ApplyDels", func(d *Durable, base core.Key, n int) error {
			// Half the keys are live (the preload), half are not: either
			// way a failed delete must report false and remove nothing.
			ops, oks := make([]core.Op, n), make([]bool, n)
			for i := range ops {
				ops[i], oks[i] = core.Op{Kind: core.OpDel, Key: core.Key(i)}, true
			}
			err := d.Apply(ops, make([]core.Value, n), oks, nil)
			for i, ok := range oks {
				if ok {
					t.Errorf("failed delete reported key %d deleted", ops[i].Key)
					break
				}
			}
			return err
		}},
		{"Put", func(d *Durable, base core.Key, _ int) error { return d.Put(base, 7) }},
		{"Del", func(d *Durable, _ core.Key, _ int) error { _, err := d.Del(0); return err }},
	}
	const preload = 8
	for _, n := range []int{1, 3, 4 * batchParallelMin} {
		for _, first := range writes {
			t.Run(fmt.Sprintf("n=%d/first=%s", n, first.name), func(t *testing.T) {
				d, err := Open(t.TempDir(), Config{Fsync: SyncAlways, CheckpointEvery: -1}, memBuild(4))
				if err != nil {
					t.Fatal(err)
				}
				if err := applyCommit(d, puts(recsFrom(0, preload)), nil); err != nil {
					t.Fatal(err)
				}
				if err := d.Crash(); err != nil {
					t.Fatal(err)
				}
				if err := d.Err(); err != nil {
					t.Fatalf("Err() = %v before any failed write", err)
				}

				const base = 1 << 20
				firstErr := first.do(d, base, n)
				if firstErr == nil {
					t.Fatalf("%s on a store with closed WALs returned nil", first.name)
				}
				if got := d.Err(); got != firstErr {
					t.Fatalf("Err() = %v, want the first error %v", got, firstErr)
				}
				// Latched: every entry point, from now on, returns that error.
				for _, w := range writes {
					if err := w.do(d, base+core.Key(n), n); err != firstErr {
						t.Errorf("%s after the store failed = %v, want the latched %v", w.name, err, firstErr)
					}
				}
				// Nothing from any failed write is visible; the preload is
				// intact and still served from memory.
				if got := d.Len(); got != preload {
					t.Errorf("Len() = %d after failed writes, want the preload's %d", got, preload)
				}
				for k := core.Key(base); k < base+core.Key(2*n); k++ {
					if _, ok := d.Get(k); ok {
						t.Fatalf("Get(%d) sees a record of a failed write", k)
					}
				}
				if v, ok := d.Get(0); !ok || v != 7 {
					t.Errorf("Get(0) = (%d, %v), want the preloaded (7, true)", v, ok)
				}
			})
		}
	}
}

// TestDurableBatchRegimes drives batches of puts and of deletes through
// Apply and Commit with one and with four segments, at sizes on both sides of batchParallelMin and of
// the log's walChunk (a batch is framed walChunk records per hold of the
// buffer), with duplicate keys in every batch.
// Either way the batch must behave like the sequential loop (later-wins
// upserts, first-wins deletes), and a crash + reopen must replay the WAL
// to the same state.
func TestDurableBatchRegimes(t *testing.T) {
	for _, segments := range []int{1, 4} {
		for _, n := range []int{3, batchParallelMin - 1, 4 * batchParallelMin} {
			t.Run(fmt.Sprintf("segments=%d/n=%d", segments, n), func(t *testing.T) {
				dir := t.TempDir()
				cfg := Config{Fsync: SyncNever, CheckpointEvery: -1}
				d, err := Open(dir, cfg, memBuild(segments))
				if err != nil {
					t.Fatal(err)
				}
				want := map[core.Key]core.Value{}
				// Two rounds; every key appears about twice per batch.
				for round := 0; round < 2; round++ {
					recs := make([]core.KV, n)
					for i := range recs {
						recs[i] = core.KV{Key: core.Key((i*7 + round) % (n/2 + 1)), Value: core.Value(1000*round + i)}
						want[recs[i].Key] = recs[i].Value
					}
					if err := applyCommit(d, puts(recs), nil); err != nil {
						t.Fatal(err)
					}

					keys := make([]core.Key, n/2+1)
					wantOKs := make([]bool, len(keys))
					for i := range keys {
						keys[i] = core.Key((i * 3) % (n/4 + 2))
						_, wantOKs[i] = want[keys[i]]
						delete(want, keys[i])
					}
					oks := make([]bool, len(keys))
					if err := d.Apply(dels(keys...), make([]core.Value, len(keys)), oks, nil); err != nil || !reflect.DeepEqual(oks, wantOKs) {
						t.Fatalf("round %d: delete oks diverge from the sequential loop (err %v)", round, err)
					}
					if err := d.Commit(nil); err != nil {
						t.Fatal(err)
					}
				}
				check := func(d *Durable, when string) {
					got := collect(d)
					if len(got) != len(want) {
						t.Fatalf("%s: %d records, want %d", when, len(got), len(want))
					}
					for _, r := range got {
						if v, ok := want[r.Key]; !ok || v != r.Value {
							t.Fatalf("%s: key %d = %d, want (%d, %v)", when, r.Key, r.Value, v, ok)
						}
					}
				}
				check(d, "live")
				if err := d.Crash(); err != nil {
					t.Fatal(err)
				}
				d, err = Open(dir, cfg, memBuild(segments))
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				check(d, "reopened")
			})
		}
	}
}

// TestAutoCheckpointIgnoresStaleSignal: writers keep signalling the
// checkpointer for as long as the record count sits above the threshold,
// so one signal is usually left in the channel when a checkpoint finishes.
// It must not buy a second checkpoint of the few records logged since.
func TestAutoCheckpointIgnoresStaleSignal(t *testing.T) {
	m := obs.NewMetrics("stale")
	d, err := Open(t.TempDir(), Config{Fsync: SyncNever, CheckpointEvery: 10, Metrics: m}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	waitDrained := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); len(d.ckptCh) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("checkpointer never took the signal")
			}
		}
	}
	d.ckptMu.Lock() // the checkpointer will take the first signal and wait here
	for i := 0; i < 10; i++ {
		d.Put(core.Key(i), 1)
	}
	waitDrained()
	d.Put(10, 1) // still above the threshold: a second signal, left in the channel
	if len(d.ckptCh) != 1 {
		t.Fatal("the write above the threshold did not signal")
	}
	d.ckptMu.Unlock()
	waitDrained()
	d.ckptMu.Lock() // behind whatever checkpoint the second signal may have started
	defer d.ckptMu.Unlock()
	if n := m.Events.Count(obs.EvCheckpoint); n != 1 || d.Gen() != 2 {
		t.Fatalf("%d checkpoints, generation %d; want 1 and 2: the stale signal was honoured", n, d.Gen())
	}
}
