package store

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/sst"
)

// DefaultCheckpointEvery is the WAL record count between automatic
// background checkpoints when Config.CheckpointEvery is zero.
const DefaultCheckpointEvery = 1 << 16

// DefaultSyncInterval is the background flush cadence for SyncInterval
// when Config.SyncInterval is zero.
const DefaultSyncInterval = 50 * time.Millisecond

// Config tunes a Durable store.
type Config struct {
	// Fsync selects WAL durability (default SyncAlways).
	Fsync SyncPolicy
	// SyncInterval is the background flush cadence under SyncInterval
	// (0 selects DefaultSyncInterval).
	SyncInterval time.Duration
	// CheckpointEvery triggers a background checkpoint after this many WAL
	// records since the last one (0 selects DefaultCheckpointEvery,
	// negative disables automatic checkpoints).
	CheckpointEvery int
	// Meta is the rebuild-parameter map persisted in the manifest of a
	// fresh store; on reopen the on-disk meta wins and is passed to the
	// builder.
	Meta map[string]string
	// Metrics, when set, receives checkpoint/flush/recovery events and the
	// fsync-latency histogram.
	Metrics *obs.Metrics
}

// RecoveryInfo describes what Open reconstructed.
type RecoveryInfo struct {
	// SnapshotGen is the manifest generation loaded (0 = none).
	SnapshotGen uint64
	// SnapshotRecs is the number of records loaded from runs: their live
	// records, summed over the runs before newer ones shadow older.
	SnapshotRecs int
	// WALRecs is the number of committed WAL records replayed.
	WALRecs int
	// TruncatedBytes counts torn or corrupt tail bytes discarded across
	// segments.
	TruncatedBytes int64
	// CorruptSnapshots counts manifest generations that failed validation
	// and were skipped.
	CorruptSnapshots int
	// Runs is the number of sorted runs loaded.
	Runs int
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Durable wraps a mutable in-memory index with write-ahead logging and
// sorted-run checkpoints. Every mutation is framed into the generation's
// one log as it is applied in memory, and the log is committed — written,
// and fsynced under SyncAlways — before the mutation is acknowledged: by
// the write entry points themselves before they return, or, for Apply, by
// the caller's Commit. Checkpoint rotates to a fresh log generation and
// flushes the retired one's delta into an immutable run (see lsm.go). All
// methods are safe for concurrent use (writes to indexes that are not
// themselves concurrency-safe are serialized internally).
type Durable struct {
	dir string
	cfg Config

	ix       MutableIndex
	route    Router
	segments int
	// concReads: the wrapped index tolerates reads concurrent with writes,
	// so readers skip the segment lock.
	concReads bool
	meta      map[string]string

	// stateMu: writers and checkpoints. Writers hold RLock for the whole
	// log+apply step, so Checkpoint's Lock is a consistent cut.
	stateMu sync.RWMutex
	// segMu[i]: held from sequence assignment to apply by every write of a
	// key that routes to segment i, so a key's sequence order is its apply
	// order (what recovery replays), while writers of other segments run
	// beside it. Non-concurrent backends have a single segment, so this
	// lock also serializes their writes; readers of such backends take
	// RLock.
	segMu []sync.RWMutex

	gen uint64
	wal *WAL

	seq       atomic.Uint64 // last assigned commit sequence number
	sinceCkpt atomic.Int64  // records logged since the last checkpoint

	ckptMu   sync.Mutex // serializes checkpoints (flush and compaction)
	ckptCh   chan struct{}
	stop     chan struct{}
	bg       sync.WaitGroup
	closed   atomic.Bool
	firstErr atomic.Pointer[error]

	hook     obs.Hook
	recovery RecoveryInfo

	// The run list is mutated only under ckptMu; runMu additionally guards
	// the swap so accessors get a consistent snapshot without blocking on a
	// flush in progress.
	runMu       sync.RWMutex
	runs        []*sst.Reader // newest first
	runRefs     []RunRef      // manifest entries matching runs
	manifestGen uint64
	manifestSeq uint64 // WAL sequence watermark covered by the runs
	nextRunID   uint64
	lsmRetired  sst.Counters // counters of readers closed by compaction
	lsmPub      sst.Counters // counter values last pushed to Metrics
}

// ---------------------------------------------------------------------------
// File layout
// ---------------------------------------------------------------------------

// walPath names a log file. This version writes segment 0 only; recovery
// reads every segment a generation has, which is how a directory of the
// log-per-segment layout reopens.
func walPath(dir string, gen uint64, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x-%03d.lix", gen, seg))
}

// dirState is the generation inventory of a store directory.
type dirState struct {
	wals      map[uint64][]string // every wal-<gen>-<seg>.lix, by generation
	manifests map[uint64]string
	runs      map[uint64]string
}

// scanDir takes the inventory of dir. A checkpoint of the retired
// snapshot-rewrite engine (snap-<gen>.lix) is an error naming the file:
// this version neither converts nor ignores that layout.
func scanDir(dir string) (dirState, error) {
	st := dirState{
		wals:      map[uint64][]string{},
		manifests: map[uint64]string{},
		runs:      map[uint64]string{},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, err
	}
	single := map[string]map[uint64]string{"lsm": st.manifests, "sst": st.runs}
	for _, e := range entries {
		name := e.Name()
		prefix, _, _ := strings.Cut(name, "-")
		if !strings.HasSuffix(name, ".lix") { // temp files of an atomic write, foreign files
			continue
		}
		var gen uint64
		var seg int
		if byGen := single[prefix]; byGen != nil {
			if _, err := fmt.Sscanf(name, prefix+"-%016x.lix", &gen); err == nil {
				byGen[gen] = filepath.Join(dir, name)
			}
		} else if _, err := fmt.Sscanf(name, "snap-%016x.lix", &gen); err == nil {
			return st, fmt.Errorf("store: %s is a checkpoint of the retired snapshot-rewrite engine, a layout this version does not open",
				filepath.Join(dir, name))
		} else if _, err := fmt.Sscanf(name, "wal-%016x-%03d.lix", &gen, &seg); err == nil {
			st.wals[gen] = append(st.wals[gen], filepath.Join(dir, name))
		}
	}
	return st, nil
}

func (st dirState) empty() bool {
	return len(st.wals) == 0 && len(st.manifests) == 0 && len(st.runs) == 0
}

// ---------------------------------------------------------------------------
// Open / Create
// ---------------------------------------------------------------------------

// Create initializes a fresh durable store at dir seeded with recs
// (sorted ascending, distinct keys; may be empty) and makes the seed
// durable as the first run. It fails if dir already holds store files.
func Create(dir string, cfg Config, build BuildFunc, recs []core.KV) (*Durable, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if !st.empty() {
		return nil, fmt.Errorf("store: %s already holds a durable store (use Open)", dir)
	}
	res, err := build(nil, recs)
	if err != nil {
		return nil, err
	}
	d, err := assemble(dir, cfg, res, cfg.Meta, 1)
	if err != nil {
		return nil, err
	}
	if d.runs, d.runRefs, err = writeBase(dir, d.meta, recs); err != nil {
		d.Close()
		return nil, err
	}
	d.nextRunID, d.manifestGen = 1+uint64(len(d.runs)), 1
	d.publishLSMGauges()
	d.start()
	return d, nil
}

// Open opens the durable store at dir, creating it empty if the
// directory holds no store files. Recovery loads the newest valid
// manifest and its runs, decodes every WAL file of the generations at or
// after it (CRC-validated, torn or corrupt tails passed over) and folds the
// records past the manifest's watermark into one more sorted delta — the
// WAL tail is the newest run, not yet written — whose last-wins merge over
// the runs is the record set the index is rebuilt from. A directory that
// holds a checkpoint of the retired snapshot-rewrite engine (snap-<gen>.lix)
// is an error naming the file, and Open leaves it untouched.
func Open(dir string, cfg Config, build BuildFunc) (*Durable, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	var info RecoveryInfo
	man, runs, datas, err := openRuns(dir, st, &info)
	if err != nil {
		return nil, err
	}
	meta, watermark := man.Meta, man.LastSeq

	// WAL generations before the manifest's are folded into its runs and
	// left for GC; the rest is the tail.
	ops, truncated, err := readGenerations(st.wals, info.SnapshotGen, ^uint64(0))
	if err != nil {
		return nil, err
	}
	info.WALRecs, info.TruncatedBytes = len(ops), truncated
	currentGen := max(info.SnapshotGen, 1)
	for gen := range st.wals {
		currentGen = max(currentGen, gen)
	}
	last := watermark // resume the sequence counter past everything recovered
	for _, op := range ops {
		last = max(last, op.Seq)
	}

	recs := sst.MergeData(append([]*sst.FileData{fold(ops, watermark)}, datas...), true).Live
	res, err := build(meta, recs)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		meta = cfg.Meta
	}
	d, err := assemble(dir, cfg, res, meta, currentGen)
	if err != nil {
		return nil, err
	}
	d.runs, d.runRefs, d.nextRunID = runs, man.Runs, nextRunID(st)
	d.manifestGen, d.manifestSeq = info.SnapshotGen, watermark
	info.Runs = len(runs)
	if st.empty() {
		// Fresh directory: publish the meta now, so that a bare reopen
		// rebuilds this configuration even if no checkpoint comes first.
		if err := writeManifest(dir, 1, d.meta, 0, nil); err != nil {
			d.Close()
			return nil, err
		}
		d.manifestGen = 1
	}
	d.seq.Store(last)
	info.Elapsed = time.Since(start)
	d.recovery = info
	d.emit(obs.EvRecovery, info.WALRecs, fmt.Sprintf("gen=%d truncated=%dB", currentGen, info.TruncatedBytes))
	d.start()
	return d, nil
}

// readGenerations decodes every WAL file of generations lo..hi and returns
// their committed records (in no particular order) and the torn or corrupt
// tail bytes passed over.
func readGenerations(wals map[uint64][]string, lo, hi uint64) (ops []Record, truncated int64, err error) {
	for gen, paths := range wals {
		if gen < lo || gen > hi {
			continue
		}
		for _, path := range paths {
			recs, trunc, err := readSegment(path)
			if err != nil {
				return nil, 0, err
			}
			ops = append(ops, recs...)
			truncated += trunc
		}
	}
	return ops, truncated, nil
}

// fold reduces WAL records to what a run holds of them: of those past the
// watermark (the rest are already in a run), the last of each key in
// commit order, as sorted live and dead lists. Sequence numbers are
// unique, so the (key, seq) order is total. ops is reordered.
func fold(ops []Record, watermark uint64) *sst.FileData {
	slices.SortFunc(ops, func(a, b Record) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	fd := &sst.FileData{}
	for i, op := range ops {
		if op.Seq <= watermark || (i+1 < len(ops) && ops[i+1].Key == op.Key) {
			continue
		}
		if op.Op == OpDelete {
			fd.Dead = append(fd.Dead, op.Key)
		} else {
			fd.Live = append(fd.Live, core.KV{Key: op.Key, Value: op.Val})
		}
	}
	return fd
}

// assemble builds the Durable shell and opens (or creates) the current
// generation's log, truncating a torn tail.
func assemble(dir string, cfg Config, res BuildResult, meta map[string]string, gen uint64) (*Durable, error) {
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = DefaultSyncInterval
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	segments := res.Segments
	if segments <= 0 {
		segments = 1
	}
	if !res.ConcurrentReads && segments != 1 {
		return nil, fmt.Errorf("store: non-concurrent index needs exactly 1 segment, got %d", segments)
	}
	if meta == nil {
		meta = map[string]string{}
	}
	d := &Durable{
		dir: dir, cfg: cfg,
		ix: res.Index, route: res.Route, segments: segments,
		concReads: res.ConcurrentReads, meta: meta,
		gen:    gen,
		segMu:  make([]sync.RWMutex, segments),
		ckptCh: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	if cfg.Metrics != nil {
		d.hook.SetRecorder(cfg.Metrics)
	}
	var err error
	d.wal, err = d.openLog(gen)
	return d, err
}

// openLog opens or creates the log of generation gen for appending.
// Recovery already consumed its committed records via readSegment; OpenWAL
// re-validates and truncates any torn tail so appends land after the last
// committed frame.
func (d *Durable) openLog(gen uint64) (*WAL, error) {
	w, _, _, err := OpenWAL(walPath(d.dir, gen, 0), gen, 0, &d.hook, d.cfg.Metrics)
	return w, err
}

func gensDesc(m map[uint64]string) []uint64 {
	out := make([]uint64, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// start launches the background flusher and checkpointer.
func (d *Durable) start() {
	if d.cfg.Fsync == SyncInterval {
		d.bg.Add(1)
		go func() {
			defer d.bg.Done()
			t := time.NewTicker(d.cfg.SyncInterval)
			defer t.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-t.C:
					d.Sync()
				}
			}
		}()
	}
	if d.cfg.CheckpointEvery > 0 {
		d.bg.Add(1)
		go func() {
			defer d.bg.Done()
			for {
				select {
				case <-d.stop:
					return
				case <-d.ckptCh:
					// A signal a writer sent while the last checkpoint was
					// cutting is stale: the count it saw has been reset.
					if d.sinceCkpt.Load() >= int64(d.cfg.CheckpointEvery) {
						d.fail(d.Checkpoint())
					}
				}
			}
		}()
	}
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

// Dir returns the store directory.
func (d *Durable) Dir() string { return d.dir }

// Gen returns the current file generation.
func (d *Durable) Gen() uint64 {
	d.stateMu.RLock()
	defer d.stateMu.RUnlock()
	return d.gen
}

// Segments returns the number of write segments: the lock domains writers
// of different keys run in beside each other (one per shard of a sharded
// index, else one).
func (d *Durable) Segments() int { return d.segments }

// Meta returns the persisted rebuild-parameter map.
func (d *Durable) Meta() map[string]string {
	out := make(map[string]string, len(d.meta))
	for k, v := range d.meta {
		out[k] = v
	}
	return out
}

// RecoveryInfo reports what Open reconstructed (zero value after Create).
func (d *Durable) RecoveryInfo() RecoveryInfo { return d.recovery }

// Fsyncs returns the fsync count of the current generation's log.
func (d *Durable) Fsyncs() uint64 { return d.log().Fsyncs() }

// log returns the current generation's log.
func (d *Durable) log() *WAL {
	d.stateMu.RLock()
	defer d.stateMu.RUnlock()
	return d.wal
}

// Err returns the first unrecoverable I/O error, if any. After an error
// the store stops accepting mutations (reads still serve from memory).
func (d *Durable) Err() error {
	if p := d.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// SetObserver routes structural events (checkpoints, WAL flushes,
// recovery) into r; nil detaches.
func (d *Durable) SetObserver(r obs.Recorder) { d.hook.SetRecorder(r) }

// fail latches err as the store's first error unless one is latched
// already (nil latches nothing) and returns what Err now returns.
func (d *Durable) fail(err error) error {
	if err == nil {
		return nil
	}
	latched := err // escapes; declared here so that a nil err costs no allocation
	d.firstErr.CompareAndSwap(nil, &latched)
	return d.Err()
}

func (d *Durable) emit(t obs.EventType, n int, detail string) {
	d.hook.Emit(t, n, detail)
}

func (d *Durable) seg(k core.Key) int {
	if d.route == nil {
		return 0
	}
	if s := d.route(k); s >= 0 && s < d.segments {
		return s
	}
	return 0
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

// Get returns the value stored for k.
func (d *Durable) Get(k core.Key) (core.Value, bool) {
	if d.concReads {
		return d.ix.Get(k)
	}
	d.segMu[0].RLock()
	defer d.segMu[0].RUnlock()
	return d.ix.Get(k)
}

// Range calls fn for every record with lo <= key <= hi in ascending
// order; fn returning false stops the scan.
func (d *Durable) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	if d.concReads {
		return d.ix.Range(lo, hi, fn)
	}
	d.segMu[0].RLock()
	defer d.segMu[0].RUnlock()
	return d.ix.Range(lo, hi, fn)
}

// Len returns the number of records.
func (d *Durable) Len() int {
	if d.concReads {
		return d.ix.Len()
	}
	d.segMu[0].RLock()
	defer d.segMu[0].RUnlock()
	return d.ix.Len()
}

// Stats reports the wrapped index's structure statistics with the WAL
// footprint added.
func (d *Durable) Stats() core.Stats {
	var st core.Stats
	if d.concReads {
		st = d.ix.Stats()
	} else {
		d.segMu[0].RLock()
		st = d.ix.Stats()
		d.segMu[0].RUnlock()
	}
	st.IndexBytes += int(d.log().End())
	st.Name = "durable(" + st.Name + ")"
	return st
}

// SearchRange collects every record with lo <= key <= hi in ascending
// key order, forwarding the wrapped index's RangeSearcher capability (a
// sharded backend answers with its parallel cross-shard fan-out). The
// result is always non-nil.
func (d *Durable) SearchRange(lo, hi core.Key) []core.KV {
	if d.concReads {
		return core.CollectRange(d.ix, lo, hi)
	}
	d.segMu[0].RLock()
	defer d.segMu[0].RUnlock()
	return core.CollectRange(d.ix, lo, hi)
}

// Unwrap returns the wrapped in-memory index (for capability probing and
// diagnostics; mutating it directly bypasses the WAL).
func (d *Durable) Unwrap() MutableIndex { return d.ix }

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

// Put durably upserts (k, v): the record is framed into the log's buffer
// and applied in memory under its segment's lock, and the log is committed
// (one write; under SyncAlways also fsynced, concurrent writers sharing
// both) before Put returns.
func (d *Durable) Put(k core.Key, v core.Value) error {
	_, err := d.logOne(OpInsert, k, v)
	return err
}

// Del durably removes k, reporting whether it was present.
func (d *Durable) Del(k core.Key) (bool, error) { return d.logOne(OpDelete, k, 0) }

// logOne is Put and Del. applied is true for an upsert and whether the key
// was present for a delete; a failed append applies nothing.
func (d *Durable) logOne(op OpKind, k core.Key, v core.Value) (applied bool, err error) {
	if err := d.Err(); err != nil {
		return false, err
	}
	d.stateMu.RLock()
	seg, w := d.seg(k), d.wal
	d.segMu[seg].Lock()
	off, err := w.Append(Record{Seq: d.seq.Add(1), Op: op, Key: k, Val: v})
	switch {
	case err != nil:
	case op == OpInsert:
		d.ix.Insert(k, v)
		applied = true
	default:
		applied = d.ix.Delete(k)
	}
	d.segMu[seg].Unlock()
	d.stateMu.RUnlock()
	if err == nil {
		err = w.Commit(off, d.cfg.Fsync == SyncAlways, nil)
	}
	return applied, d.finish(1, err)
}

// finish ends a write of n records with err: it counts the records toward
// the next checkpoint and latches a failure, returning the latched Err —
// this call's, unless a concurrent writer's came earlier.
func (d *Durable) finish(n int, err error) error {
	d.bumpCheckpoint(n)
	return d.fail(err)
}

// Insert implements MutableIndex. I/O errors latch into Err and turn
// further mutations into no-ops; callers that need the error use Put, or
// Apply and Commit.
func (d *Durable) Insert(k core.Key, v core.Value) { d.Put(k, v) }

// Delete implements MutableIndex; see Insert for error handling.
func (d *Durable) Delete(k core.Key) bool {
	ok, _ := d.Del(k)
	return ok
}

// lockSegments takes, in ascending order, the lock of every segment a write
// of the batch routes to, and returns the set for unlockSegments. The set
// is a 64-bit mask over segment numbers mod 64, so beyond 64 segments it
// holds some the batch does not touch — more exclusion than needed, never
// less, and the ascending order keeps two batches from deadlocking.
func (d *Durable) lockSegments(ops []core.Op) (mask uint64) {
	if d.segments == 1 {
		d.segMu[0].Lock()
		return 1
	}
	for i := range ops {
		if ops[i].Kind != core.OpGet {
			mask |= 1 << (d.seg(ops[i].Key) & 63)
		}
	}
	for seg := range d.segMu {
		if mask>>(seg&63)&1 != 0 {
			d.segMu[seg].Lock()
		}
	}
	return mask
}

func (d *Durable) unlockSegments(mask uint64) {
	for seg := range d.segMu {
		if mask>>(seg&63)&1 != 0 {
			d.segMu[seg].Unlock()
		}
	}
}

// write logs and applies the n writes of ops (n > 0, the store not
// latched), answering its gets into vals and oks and its deletes into oks.
// Under the locks of the segments the batch writes it numbers the records,
// frames them into the log's buffer (the span's wal stage) and hands the
// whole batch to the wrapped index's batch capability (the shard stage;
// the span is not forwarded, and a sharded index fans a large batch out
// itself); a failed append applies nothing. It does not commit.
func (d *Durable) write(ops []core.Op, n int, vals []core.Value, oks []bool, sp *core.Span) error {
	d.stateMu.RLock()
	w := d.wal
	mask := d.lockSegments(ops)
	t0 := sp.Begin()
	err := w.AppendBatch(ops, d.seq.Add(uint64(n))-uint64(n)+1)
	sp.End(core.StageWAL, t0)
	if err == nil {
		t0 = sp.Begin()
		err = core.Apply(d.ix, ops, vals, oks, nil)
		sp.End(core.StageShard, t0)
	}
	d.unlockSegments(mask)
	d.stateMu.RUnlock()
	return d.finish(n, err)
}

// Apply and Commit are the core.Applier and core.Committer capabilities,
// the store's one batch entry point: a batch applied and logged without a
// commit — its writes framed in one append under one hold of the locks
// they need; gets alone touch neither, and are the span's shard stage
// alone — and the commit of everything applied so far, through any entry
// point, as one log write. Until Commit returns nil the caller lets no
// acknowledgement out, nor a read that may have seen such a write. On a
// latched store or a failed append Apply applies no write, answers the
// gets from memory (every delete false) and returns the error.
func (d *Durable) Apply(ops []core.Op, vals []core.Value, oks []bool, sp *core.Span) error {
	n := 0
	for i := range ops {
		if ops[i].Kind != core.OpGet {
			n++
		}
	}
	if n == 0 {
		defer sp.End(core.StageShard, sp.Begin())
		if !d.concReads {
			d.segMu[0].RLock()
			defer d.segMu[0].RUnlock()
		}
		return core.Apply(d.ix, ops, vals, oks, nil)
	}
	err := d.Err()
	if err == nil {
		if err = d.write(ops, n, vals, oks, sp); err == nil {
			return nil
		}
	}
	for i, op := range ops {
		switch op.Kind {
		case core.OpGet:
			vals[i], oks[i] = d.Get(op.Key)
		case core.OpDel:
			oks[i] = false
		}
	}
	return err
}

// Commit writes the log out up to its current end (and fsyncs it under
// SyncAlways), into sp's wal and fsync stages. A failure latches Err, as a
// failed write does; on a store already latched Commit keeps failing while
// records applied before the failure are not in the log.
func (d *Durable) Commit(sp *core.Span) error {
	return d.commitLog(d.cfg.Fsync == SyncAlways, sp)
}

// commitLog commits the current log up to its end, latching a failure.
func (d *Durable) commitLog(sync bool, sp *core.Span) error {
	w := d.log()
	return d.fail(w.Commit(w.End(), sync, sp))
}

func (d *Durable) bumpCheckpoint(n int) {
	if d.cfg.CheckpointEvery <= 0 {
		return
	}
	if d.sinceCkpt.Add(int64(n)) >= int64(d.cfg.CheckpointEvery) {
		select {
		case d.ckptCh <- struct{}{}:
		default:
		}
	}
}

// ---------------------------------------------------------------------------
// Checkpoint / lifecycle
// ---------------------------------------------------------------------------

// Sync commits and fsyncs the log (a durability barrier under
// SyncInterval and SyncNever).
func (d *Durable) Sync() error { return d.commitLog(true, nil) }

// Close stops background work, commits the log and makes it durable, and
// closes the files. It does not checkpoint: the next Open replays the log.
func (d *Durable) Close() error { return d.shutdown((*WAL).Close) }

// Crash simulates a process kill: background work stops, the log's buffer
// is dropped and the files are closed without any final fsync or
// checkpoint. State that was not yet committed and synced is exactly what a
// real crash would lose. The store is unusable afterwards; reopen the
// directory with Open.
func (d *Durable) Crash() error { return d.shutdown((*WAL).Crash) }

// shutdown stops the background goroutines, then releases the log through
// release, and the run readers (immutable files: closing them loses
// nothing).
func (d *Durable) shutdown(release func(*WAL) error) error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.bg.Wait()
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	err := release(d.wal)
	d.runMu.Lock()
	defer d.runMu.Unlock()
	for _, r := range d.runs {
		r.Close()
	}
	d.runs, d.runRefs = nil, nil
	return err
}
