package store

import (
	"math/rand"
	"os"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/sst"
)

// seedOrphan writes a small valid run file at path, as a crash between a
// flush's run write and its manifest publication would leave behind.
func seedOrphan(t *testing.T, path string) {
	t.Helper()
	if err := sst.WriteFile(path, &sst.FileData{Live: []core.KV{{Key: 1, Value: 1}}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
}

func lsmCfg() Config {
	return Config{Fsync: SyncNever, CheckpointEvery: -1}
}

func TestLSMFlushReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := d.Put(core.Key(i*2), core.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := d.Del(core.Key(i * 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The flush retired the old WAL generation: checkpointing IS the WAL
	// truncation point.
	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for gen := range st.wals {
		if gen <= 1 {
			t.Fatalf("WAL generation %d survived the flush", gen)
		}
	}
	if len(st.manifests) != 1 {
		t.Fatalf("manifests on disk: %d, want 1", len(st.manifests))
	}
	ls := d.LSMStats()
	if ls.Runs != 1 || ls.LiveRecs != n-50 {
		t.Fatalf("LSMStats = %+v, want 1 run with %d live records", ls, n-50)
	}
	d.Close()

	d2, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if ri := d2.RecoveryInfo(); ri.Runs != 1 || ri.SnapshotRecs != n-50 {
		t.Fatalf("RecoveryInfo = %+v, want 1 run / %d base records", ri, n-50)
	}
	if d2.Len() != n-50 {
		t.Fatalf("recovered %d records, want %d", d2.Len(), n-50)
	}
	for i := 0; i < n; i++ {
		k := core.Key(i * 2)
		v, ok := d2.Get(k)
		if k%4 == 0 && k < 200 {
			if ok {
				t.Fatalf("deleted key %d resurrected with %d", k, v)
			}
		} else if !ok || v != core.Value(i) {
			t.Fatalf("key %d: got (%d,%v), want %d", k, v, ok, i)
		}
	}
}

// TestLSMFlushIsIncremental pins the tentpole property: a checkpoint
// writes only the WAL delta since the previous one, not the dataset.
func TestLSMFlushIsIncremental(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const base = 20000
	for i := 0; i < base; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const delta = 10
	for i := 0; i < delta; i++ {
		d.Put(core.Key(base+i), core.Value(i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runs := d.Runs()
	if len(runs) != 2 {
		t.Fatalf("run count = %d, want 2", len(runs))
	}
	if got := runs[0].Stats().Live + runs[0].Stats().Dead; got != delta {
		t.Fatalf("second flush wrote %d records, want the %d-record delta", got, delta)
	}
	if runs[1].Stats().Live != base {
		t.Fatalf("base run holds %d records, want %d", runs[1].Stats().Live, base)
	}
	// An empty delta must not mint a new run.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Runs()); got != 2 {
		t.Fatalf("empty flush changed run count to %d", got)
	}
}

func TestLSMCompactionBoundsRuns(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics("t")
	cfg := lsmCfg()
	cfg.Metrics = m
	d, err := Open(dir, cfg, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(11))
	expect := map[core.Key]core.Value{}
	const batches, perBatch = 12, 300
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			k := core.Key(rng.Intn(5000) * 2)
			if rng.Intn(5) == 0 {
				d.Del(k)
				delete(expect, k)
			} else {
				v := core.Value(rng.Uint64())
				d.Put(k, v)
				expect[k] = v
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ls := d.LSMStats()
	if ls.Runs > compactMinRuns {
		t.Fatalf("compaction let the run list grow to %d (> %d)", ls.Runs, compactMinRuns)
	}
	if m.Events.Count(obs.EvCompaction) == 0 {
		t.Fatal("no EvCompaction events emitted across 12 flushes")
	}
	if m.LSMRuns.Load() != int64(ls.Runs) {
		t.Fatalf("lsm_runs gauge = %d, runs = %d", m.LSMRuns.Load(), ls.Runs)
	}
	if m.LSMRunBytes.Load() != ls.RunBytes || ls.RunBytes == 0 {
		t.Fatalf("lsm_run_bytes gauge = %d, want %d (nonzero)", m.LSMRunBytes.Load(), ls.RunBytes)
	}
	// Nothing has read through a run yet, so no filter exists to weigh.
	// One lookup per run trains them; the next flush publishes the gauges.
	if m.FilterBytes.Load() != 0 || m.FilterFPRPpm.Load() != 0 {
		t.Fatalf("filter gauges = %d B / %d ppm before any run was read through", m.FilterBytes.Load(), m.FilterFPRPpm.Load())
	}
	for _, r := range d.Runs() {
		if _, _, err := r.Get(r.Stats().MinKey); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.FilterBytes.Load() == 0 {
		t.Fatal("lbf_filter_bytes gauge not published")
	}

	// In-memory state matches the model, and so does a cold reopen.
	if d.Len() != len(expect) {
		t.Fatalf("Len = %d, model has %d", d.Len(), len(expect))
	}
	d.Close()
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != len(expect) {
		t.Fatalf("reopened Len = %d, model has %d", d2.Len(), len(expect))
	}
	for k, v := range expect {
		if got, ok := d2.Get(k); !ok || got != v {
			t.Fatalf("key %d: got (%d,%v), want %d", k, got, ok, v)
		}
	}
}

// TestLSMFilterSkips pins the acceptance criterion: on point lookups of
// absent keys, the per-run learned filters skip at least 90% of the run
// probes that reach them.
func TestLSMFilterSkips(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(21))
	for b := 0; b < 3; b++ {
		for i := 0; i < 4000; i++ {
			d.Put(core.Key(rng.Uint64())&^1, core.Value(i)) // even keys only
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	tiers := d.Tiers()
	if len(tiers.Runs()) < 2 {
		t.Fatalf("want >= 2 runs, have %d", len(tiers.Runs()))
	}
	for i := 0; i < 20000; i++ {
		k := core.Key(rng.Uint64()) | 1 // odd = absent everywhere
		if _, ok, err := tiers.Get(k); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatalf("absent key %d found", k)
		}
	}
	c := d.LSMStats().Counters
	consulted := c.Probes - c.RangeSkips
	if consulted == 0 {
		t.Fatal("no probes consulted a filter")
	}
	if rate := float64(c.FilterSkips) / float64(consulted); rate < 0.9 {
		t.Fatalf("filters skipped %.1f%% of absent-key run probes, want >= 90%% (%+v)", 100*rate, c)
	}
}

// TestLSMCrashSweep is the crash-injection suite for the LSM engine:
// torn WAL tails recover the committed prefix over the run base, damaged
// run or manifest files turn into reopen errors (committed answer or
// error — never a silently wrong answer), and crash debris from an
// interrupted flush (rotated WAL, orphaned run, stale temp manifest) is
// recovered around and garbage-collected.
func TestLSMCrashSweep(t *testing.T) {
	const base, extra = 300, 120
	// build populates dir with a flushed base of even keys 0..2(base-1)
	// and extra unflushed WAL inserts of keys base*2..(base+extra-1)*2.
	build := func(t *testing.T, dir string) {
		d, err := Open(dir, lsmCfg(), memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < base; i++ {
			d.Put(core.Key(i*2), core.Value(i+1))
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := base; i < base+extra; i++ {
			d.Put(core.Key(i*2), core.Value(i+1))
		}
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("torn WAL tail recovers committed prefix", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 10; trial++ {
			dir := t.TempDir()
			build(t, dir)
			path := walPath(dir, 2, 0) // generation after the flush
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Intn(len(data) + 1)
			os.WriteFile(path, data[:cut], 0o644)
			want := base + committedAt(cut)

			d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
			if err != nil {
				t.Fatalf("trial %d cut %d: recovery aborted: %v", trial, cut, err)
			}
			if d.Len() != want {
				t.Fatalf("trial %d cut %d: recovered %d, want %d", trial, cut, d.Len(), want)
			}
			for i := 0; i < want; i++ {
				if v, ok := d.Get(core.Key(i * 2)); !ok || v != core.Value(i+1) {
					t.Fatalf("trial %d: committed key %d lost (%d,%v)", trial, i*2, v, ok)
				}
			}
			d.Close()
		}
	})

	t.Run("bit flip in a run file is a reopen error", func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for trial := 0; trial < 8; trial++ {
			dir := t.TempDir()
			build(t, dir)
			st, _ := scanDir(dir)
			for _, path := range st.runs {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
				os.WriteFile(path, data, 0o644)
			}
			if d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1)); err == nil {
				d.Close()
				t.Fatalf("trial %d: reopen served a store with a corrupt run", trial)
			}
		}
	})

	t.Run("bit flip in the manifest is a reopen error", func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for trial := 0; trial < 8; trial++ {
			dir := t.TempDir()
			build(t, dir)
			st, _ := scanDir(dir)
			for _, path := range st.manifests {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
				os.WriteFile(path, data, 0o644)
			}
			if d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1)); err == nil {
				d.Close()
				t.Fatalf("trial %d: reopen served a store with a corrupt manifest", trial)
			}
		}
	})

	t.Run("truncated run file is a reopen error", func(t *testing.T) {
		dir := t.TempDir()
		build(t, dir)
		st, _ := scanDir(dir)
		for _, path := range st.runs {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)-100], 0o644)
		}
		if d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1)); err == nil {
			d.Close()
			t.Fatal("reopen served a store with a truncated run")
		}
	})

	t.Run("interrupted flush debris is recovered around", func(t *testing.T) {
		dir := t.TempDir()
		build(t, dir)
		// Simulate a crash mid-flush: the WAL rotated to generation 3 and
		// the delta run hit disk, but the manifest was never published. A
		// stale manifest temp file lingers too.
		if err := os.WriteFile(walPath(dir, 3, 0), walHeader(3, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		// An orphaned run under an unreferenced ID and a stale manifest
		// temp file linger from the interrupted flush.
		if err := WriteSnapshot(manifestPath(dir, 99)+".tmp-123", &SnapshotData{}); err != nil {
			t.Fatal(err)
		}
		orphanRun := runPath(dir, 77)
		seedOrphan(t, orphanRun)

		d0, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		want := base + extra
		if d0.Len() != want {
			t.Fatalf("recovered %d records, want %d", d0.Len(), want)
		}
		// The next flush folds the lingering generations and clears debris:
		// one manifest on disk, the orphan run gone, IDs not reused.
		if err := d0.Put(core.Key(999999), 1); err != nil {
			t.Fatal(err)
		}
		if err := d0.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, _ := scanDir(dir)
		if len(st.manifests) != 1 {
			t.Fatalf("%d manifests after flush, want 1", len(st.manifests))
		}
		if _, err := os.Stat(orphanRun); !os.IsNotExist(err) {
			t.Fatal("orphaned run survived the flush GC")
		}
		for id := range st.runs {
			if id <= 77 && id != 1 {
				t.Fatalf("run ID %d at or below the orphan's was reused", id)
			}
		}
		d0.Close()
		d1, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		defer d1.Close()
		if d1.Len() != want+1 {
			t.Fatalf("final reopen: %d records, want %d", d1.Len(), want+1)
		}
	})
}

// TestLSMTombstoneShadowsAcrossReopen: a delete flushed as a tombstone
// must keep shadowing the older run's record across reopens and full
// compactions.
func TestLSMTombstoneShadowsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d.Put(core.Key(i), core.Value(i+1))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Del(7)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ls := d.LSMStats()
	if ls.Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", ls.Tombstones)
	}
	d.Close()

	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Get(7); ok {
		t.Fatal("tombstoned key resurrected on reopen")
	}
	if d2.Len() != 99 {
		t.Fatalf("Len = %d, want 99", d2.Len())
	}
}

// TestOpenTrainsNothing: Create, a flush, a compaction and Open build no
// model — a run's fence model and filter wait for the first lookup that
// reads through it — and one Tiers lookup per run builds them all.
func TestOpenTrainsNothing(t *testing.T) {
	untrained := func(d *Durable, when string) {
		t.Helper()
		for _, r := range d.Runs() {
			if st := r.Stats(); st.FilterBits != 0 || st.Segments != 0 {
				t.Fatalf("%s: run %s is trained (%d filter bits, %d segments) with nothing read through it", when, st.Path, st.FilterBits, st.Segments)
			}
		}
	}
	dir := t.TempDir()
	// Runs big enough for a fence model (>= 64 data pages each).
	const perRun = 20_000
	seed := make([]core.KV, perRun)
	for i := range seed {
		seed[i] = core.KV{Key: core.Key(i), Value: 1}
	}
	d, err := Create(dir, lsmCfg(), memBuild(1), seed)
	if err != nil {
		t.Fatal(err)
	}
	untrained(d, "after Create")
	compactions := 0
	for b := 1; compactions == 0; b++ {
		recs := make([]core.KV, perRun)
		for i := range recs {
			recs[i] = core.KV{Key: core.Key(b*perRun + i), Value: core.Value(b)}
		}
		if err := applyCommit(d, puts(recs), nil); err != nil {
			t.Fatal(err)
		}
		before := len(d.Runs())
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		untrained(d, "after a flush")
		if len(d.Runs()) <= before {
			compactions++
		}
	}
	if err := d.Put(0, 2); err != nil { // a second run beside the compacted one
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	untrained(d, "after a compaction")
	d.Close()

	d, err = Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	untrained(d, "after Open")
	if len(d.Runs()) < 2 {
		t.Fatalf("%d runs, want at least 2", len(d.Runs()))
	}
	// Key 0 lies inside every run here: the seed, compacted, and the
	// rewrite on top.
	if v, ok, err := d.Tiers().Get(0); err != nil || !ok || v != 2 {
		t.Fatalf("Tiers().Get(0) = (%d, %v, %v), want the newest run's 2", v, ok, err)
	}
	newest := d.Runs()[0].Stats()
	if newest.FilterBits == 0 {
		t.Fatalf("the run that answered is untrained: %+v", newest)
	}
	for _, r := range d.Runs()[1:] {
		if _, _, err := r.Get(r.Stats().MinKey); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.FilterBits == 0 || st.Segments == 0 {
			t.Fatalf("run %s still untrained after a lookup: %+v", st.Path, st)
		}
	}
}

// TestOpenErrorLeaksNoDescriptors: an Open that fails after the runs were
// loaded — here the builder refuses, as the façade's does on a kind
// conflict — must not leave the run files open.
func TestOpenErrorLeaksNoDescriptors(t *testing.T) {
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
		}
		return len(ents)
	}
	countFDs()
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	// Runs of 4, 8, 16, 32 and 64 data pages: no window of four is within
	// the compactor's size ratio, so all five stay.
	for b, pages := 0, 4; b < 5; b, pages = b+1, pages*2 {
		for i := 0; i < pages*sst.RecsPerPage; i++ {
			d.Put(core.Key(b<<32|i), 1)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(d.Runs()); got != 5 {
		t.Fatalf("%d runs, want 5", got)
	}
	d.Close()

	refuse := func(map[string]string, []core.KV) (BuildResult, error) {
		return BuildResult{}, os.ErrInvalid
	}
	before := countFDs()
	for i := 0; i < 50; i++ {
		if d, err := Open(dir, lsmCfg(), refuse); err == nil {
			d.Close()
			t.Fatal("Open succeeded with a builder that refuses")
		}
	}
	if after := countFDs(); after > before {
		t.Fatalf("50 failed opens of a 5-run directory left %d descriptors open", after-before)
	}
}

// TestFoldMatchesMapReplay: fold's sort-and-keep-last equals replaying the
// records in commit order through a map, for records that arrive out of
// order (as segments do), repeat keys, and straddle the watermark.
func TestFoldMatchesMapReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		ops := make([]Record, n)
		for i := range ops {
			ops[i] = Record{Seq: uint64(i + 1), Op: OpInsert, Key: core.Key(rng.Intn(60)), Val: core.Value(rng.Uint64())}
			if rng.Intn(3) == 0 {
				ops[i].Op, ops[i].Val = OpDelete, 0
			}
		}
		watermark := uint64(rng.Intn(n + 1))
		type state struct {
			val  core.Value
			dead bool
		}
		replay := map[core.Key]state{}
		for _, op := range ops { // still in commit order
			if op.Seq > watermark {
				replay[op.Key] = state{val: op.Val, dead: op.Op == OpDelete}
			}
		}
		rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		fd := fold(ops, watermark)
		if len(fd.Live)+len(fd.Dead) != len(replay) {
			t.Fatalf("trial %d: fold kept %d keys, the replay %d", trial, len(fd.Live)+len(fd.Dead), len(replay))
		}
		for i, kv := range fd.Live {
			if s, ok := replay[kv.Key]; !ok || s.dead || s.val != kv.Value {
				t.Fatalf("trial %d: live %+v, replay says %+v (present %v)", trial, kv, s, ok)
			}
			if i > 0 && fd.Live[i-1].Key >= kv.Key {
				t.Fatalf("trial %d: live keys not ascending at %d", trial, i)
			}
		}
		for i, k := range fd.Dead {
			if s, ok := replay[k]; !ok || !s.dead {
				t.Fatalf("trial %d: dead key %d, replay says %+v (present %v)", trial, k, s, ok)
			}
			if i > 0 && fd.Dead[i-1] >= k {
				t.Fatalf("trial %d: dead keys not ascending at %d", trial, i)
			}
		}
	}
}
