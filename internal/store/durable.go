package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// Storage engines. EngineSnapshot rewrites the full record set into a
// snapshot at every checkpoint; EngineLSM flushes only the WAL delta into
// a new sorted run and lets a background size-tiered compactor bound the
// run count, making checkpoint cost O(memtable) instead of O(dataset).
const (
	EngineSnapshot = "snapshot"
	EngineLSM      = "lsm"
)

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
	// Engine selects the checkpoint storage engine (EngineSnapshot or
	// EngineLSM; "" means EngineSnapshot). On reopen the engine the
	// directory's files belong to wins over this setting.
	Engine string
	// Meta is the rebuild-parameter map persisted in snapshots of a fresh
	// store; on reopen the on-disk meta wins and is passed to the builder.
	Meta map[string]string
	// Metrics, when set, receives checkpoint/flush/recovery events and the
	// fsync-latency histogram.
	Metrics *obs.Metrics
}

// RecoveryInfo describes what Open reconstructed.
type RecoveryInfo struct {
	// SnapshotGen is the generation of the snapshot loaded (0 = none).
	SnapshotGen uint64
	// SnapshotRecs is the record count loaded from the snapshot.
	SnapshotRecs int
	// WALRecs is the number of committed WAL records replayed.
	WALRecs int
	// TruncatedBytes counts torn or corrupt tail bytes discarded across
	// segments.
	TruncatedBytes int64
	// CorruptSnapshots counts snapshot generations that failed validation
	// and were skipped.
	CorruptSnapshots int
	// Runs is the number of LSM sorted runs loaded (0 for the snapshot
	// engine).
	Runs int
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Durable wraps a mutable in-memory index with write-ahead logging and
// snapshot checkpoints. Every mutation is framed into a WAL segment
// before it is applied in memory; Checkpoint rotates to a fresh
// generation by atomically writing a full snapshot and retiring the old
// log. All methods are safe for concurrent use (writes to indexes that
// are not themselves concurrency-safe are serialized internally).
type Durable struct {
	dir string
	cfg Config

	ix       MutableIndex
	route    Router
	segments int
	// concReads: the wrapped index tolerates reads concurrent with writes,
	// so readers skip the per-segment lock.
	concReads bool
	meta      map[string]string

	// stateMu: writers and checkpoints. Writers hold RLock for the whole
	// log+apply step, so Checkpoint's Lock is a consistent cut.
	stateMu sync.RWMutex
	// segMu[i]: orders log and apply within segment i, which preserves
	// per-key operation order (a key routes to exactly one segment).
	// Non-concurrent backends have a single segment, so this lock also
	// serializes their writes; readers of such backends take RLock.
	segMu []sync.RWMutex

	gen  uint64
	wals []*WAL

	seq       atomic.Uint64 // last assigned commit sequence number
	sinceCkpt atomic.Int64  // records logged since the last checkpoint

	ckptMu   sync.Mutex // serializes checkpoints (and LSM flush/compaction)
	ckptCh   chan struct{}
	stop     chan struct{}
	bg       sync.WaitGroup
	closed   atomic.Bool
	firstErr atomic.Pointer[error]

	hook     obs.Hook
	recovery RecoveryInfo

	scratch sync.Pool // *segScratch, the batch paths' grouping workspace

	// LSM engine state (engine == EngineLSM). The run list is mutated only
	// under ckptMu; runMu additionally guards the swap so accessors get a
	// consistent snapshot without blocking on a flush in progress.
	engine      string
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

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.lix", gen))
}

func walPath(dir string, gen uint64, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x-%03d.lix", gen, seg))
}

// dirState is the generation inventory of a store directory.
type dirState struct {
	snaps     map[uint64]string
	wals      map[uint64]map[int]string
	manifests map[uint64]string
	runs      map[uint64]string
}

func scanDir(dir string) (dirState, error) {
	st := dirState{
		snaps:     map[uint64]string{},
		wals:      map[uint64]map[int]string{},
		manifests: map[uint64]string{},
		runs:      map[uint64]string{},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		name := e.Name()
		var gen uint64
		var seg int
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".lix"):
			if _, err := fmt.Sscanf(name, "snap-%016x.lix", &gen); err == nil {
				st.snaps[gen] = filepath.Join(dir, name)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".lix"):
			if _, err := fmt.Sscanf(name, "wal-%016x-%03d.lix", &gen, &seg); err == nil {
				if st.wals[gen] == nil {
					st.wals[gen] = map[int]string{}
				}
				st.wals[gen][seg] = filepath.Join(dir, name)
			}
		case strings.HasPrefix(name, "lsm-") && strings.HasSuffix(name, ".lix"):
			if _, err := fmt.Sscanf(name, "lsm-%016x.lix", &gen); err == nil {
				st.manifests[gen] = filepath.Join(dir, name)
			}
		case strings.HasPrefix(name, "sst-") && strings.HasSuffix(name, ".lix"):
			if _, err := fmt.Sscanf(name, "sst-%016x.lix", &gen); err == nil {
				st.runs[gen] = filepath.Join(dir, name)
			}
		}
	}
	return st, nil
}

func (st dirState) empty() bool {
	return len(st.snaps) == 0 && len(st.wals) == 0 && len(st.manifests) == 0 && len(st.runs) == 0
}

// resolveEngine picks the storage engine: the engine the directory's
// files belong to wins, a fresh directory follows the config.
func resolveEngine(st dirState, want string) string {
	if len(st.manifests) > 0 || len(st.runs) > 0 {
		return EngineLSM
	}
	if len(st.snaps) > 0 {
		return EngineSnapshot
	}
	if want == EngineLSM {
		return EngineLSM
	}
	return EngineSnapshot
}

// ---------------------------------------------------------------------------
// Open / Create
// ---------------------------------------------------------------------------

// Create initializes a fresh durable store at dir seeded with recs
// (sorted ascending, distinct keys; may be empty) and makes the seed
// durable with an initial checkpoint. It fails if dir already holds
// store files.
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
	d.engine = resolveEngine(st, cfg.Engine)
	if d.engine == EngineLSM {
		if err := d.createLSM(recs); err != nil {
			d.Close()
			return nil, err
		}
	} else if err := WriteSnapshot(snapPath(dir, 1), &SnapshotData{Meta: d.meta, Recs: recs, LastSeq: 0}); err != nil {
		d.Close()
		return nil, err
	}
	d.start()
	return d, nil
}

// Open opens the durable store at dir, creating it empty if the
// directory holds no store files. Recovery loads the newest valid
// snapshot, then replays every WAL generation at or after it: segments
// are decoded and CRC-validated in parallel, torn or corrupt tails are
// truncated, and the committed records are merged by global sequence
// number before the index is rebuilt.
func Open(dir string, cfg Config, build BuildFunc) (*Durable, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	engine := resolveEngine(st, cfg.Engine)

	// Newest valid snapshot wins; corrupt ones are skipped, not fatal.
	// Under the LSM engine the "snapshot" is the newest decodable manifest
	// with its runs merged into a base record set; a manifest whose run
	// files fail validation is a hard error (serving without them would
	// silently drop committed writes).
	var info RecoveryInfo
	var snap *SnapshotData
	var runReaders []*sst.Reader
	if engine == EngineLSM {
		snap, runReaders, err = openLSMBase(dir, st, &info)
		if err != nil {
			return nil, err
		}
	} else {
		for _, gen := range gensDesc(st.snaps) {
			s, err := ReadSnapshot(st.snaps[gen])
			if err != nil {
				info.CorruptSnapshots++
				continue
			}
			snap, info.SnapshotGen = s, gen
			break
		}
	}
	base, meta := []core.KV(nil), map[string]string(nil)
	if snap != nil {
		base, meta = snap.Recs, snap.Meta
		info.SnapshotRecs = len(snap.Recs)
	}

	// Decode every WAL segment of every generation >= the snapshot's, in
	// parallel (one goroutine per segment file).
	type segJob struct {
		gen  uint64
		seg  int
		path string
	}
	var jobs []segJob
	currentGen := info.SnapshotGen
	for gen, segs := range st.wals {
		if gen < info.SnapshotGen {
			continue // absorbed by the snapshot, left for GC
		}
		if gen > currentGen {
			currentGen = gen
		}
		for seg, path := range segs {
			jobs = append(jobs, segJob{gen, seg, path})
		}
	}
	if currentGen == 0 {
		currentGen = 1
	}
	segRecs := make([][]Record, len(jobs))
	segTrunc := make([]int64, len(jobs))
	segErr := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j segJob) {
			defer wg.Done()
			segRecs[i], segTrunc[i], segErr[i] = readSegment(j.path)
		}(i, j)
	}
	wg.Wait()
	var ops []Record
	for i := range jobs {
		if segErr[i] != nil {
			return nil, segErr[i]
		}
		ops = append(ops, segRecs[i]...)
		info.TruncatedBytes += segTrunc[i]
	}
	// Global commit order across segments and generations.
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Seq < ops[j].Seq })
	info.WALRecs = len(ops)

	recs := replayOver(base, ops)
	res, err := build(meta, recs)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		meta = cfg.Meta
	}
	d, err := assemble(dir, cfg, res, meta, currentGen)
	if err != nil {
		for _, r := range runReaders {
			r.Close()
		}
		return nil, err
	}
	d.engine = engine
	if engine == EngineLSM {
		d.runs = runReaders
		if snap != nil {
			d.runRefs = snap.Runs
			d.manifestGen, d.manifestSeq = info.SnapshotGen, snap.LastSeq
		}
		d.nextRunID = nextRunID(st)
		info.Runs = len(runReaders)
		if st.empty() {
			// Fresh directory opened straight onto the LSM engine: make the
			// choice durable so a reopen without cfg.Engine resolves to it.
			if err := WriteSnapshot(manifestPath(dir, 1), &SnapshotData{Meta: d.meta, LastSeq: 0}); err != nil {
				d.Close()
				return nil, err
			}
			d.manifestGen = 1
		}
	}

	// Resume the sequence counter past everything recovered.
	last := uint64(0)
	if snap != nil {
		last = snap.LastSeq
	}
	for _, op := range ops {
		if op.Seq > last {
			last = op.Seq
		}
	}
	d.seq.Store(last)
	info.Elapsed = time.Since(start)
	d.recovery = info
	d.emit(obs.EvRecovery, info.WALRecs, fmt.Sprintf("gen=%d truncated=%dB", currentGen, info.TruncatedBytes))
	d.start()
	return d, nil
}

// assemble builds the Durable shell and opens (or creates) the current
// generation's WAL segments, truncating torn tails.
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
	wals, err := d.openGeneration(gen)
	if err != nil {
		return nil, err
	}
	d.wals = wals
	return d, nil
}

// openGeneration opens or creates the append handles for generation gen.
// Recovery already consumed their committed records via readSegment;
// OpenWAL re-validates and truncates any torn tail so appends land after
// the last committed frame.
func (d *Durable) openGeneration(gen uint64) ([]*WAL, error) {
	wals := make([]*WAL, d.segments)
	var fsyncNS *obs.Histogram
	if d.cfg.Metrics != nil {
		fsyncNS = &d.cfg.Metrics.FsyncNS
	}
	for seg := range wals {
		w, _, _, err := OpenWAL(walPath(d.dir, gen, seg), gen, seg, &d.hook, fsyncNS)
		if err != nil {
			for _, open := range wals[:seg] {
				open.Close()
			}
			return nil, err
		}
		wals[seg] = w
	}
	return wals, nil
}

// replayOver applies ops (sorted by Seq) over the sorted base record set
// and returns the resulting sorted record set.
func replayOver(base []core.KV, ops []Record) []core.KV {
	if len(ops) == 0 {
		return base
	}
	type state struct {
		val core.Value
		del bool
	}
	overlay := make(map[core.Key]state, len(ops))
	for _, op := range ops {
		overlay[op.Key] = state{val: op.Val, del: op.Op == OpDelete}
	}
	keys := make([]core.Key, 0, len(overlay))
	for k := range overlay {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	out := make([]core.KV, 0, len(base)+len(keys))
	bi := 0
	for _, k := range keys {
		for bi < len(base) && base[bi].Key < k {
			out = append(out, base[bi])
			bi++
		}
		if bi < len(base) && base[bi].Key == k {
			bi++ // superseded by the overlay
		}
		if s := overlay[k]; !s.del {
			out = append(out, core.KV{Key: k, Value: s.val})
		}
	}
	return append(out, base[bi:]...)
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
					if err := d.Checkpoint(); err != nil {
						d.fail(err)
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

// Segments returns the WAL segment count.
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

// Fsyncs returns the total fsync count across the current generation's
// segments.
func (d *Durable) Fsyncs() uint64 {
	d.stateMu.RLock()
	defer d.stateMu.RUnlock()
	var n uint64
	for _, w := range d.wals {
		n += w.Fsyncs()
	}
	return n
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

func (d *Durable) fail(err error) {
	if err == nil {
		return
	}
	d.firstErr.CompareAndSwap(nil, &err)
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
	d.stateMu.RLock()
	for _, w := range d.wals {
		st.IndexBytes += int(w.Size())
	}
	d.stateMu.RUnlock()
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

// LookupBatch resolves keys into the caller's vals and oks slices
// through the wrapped index's batched path when it has one. Reads
// never touch the WAL, so the durable layer adds no stages of its own:
// the whole in-memory batch is the span's shard stage, timed here and
// not forwarded (no double count).
func (d *Durable) LookupBatch(keys []core.Key, vals []core.Value, oks []bool, sp *core.Span) {
	defer sp.End(core.StageShard, sp.Begin())
	if !d.concReads {
		d.segMu[0].RLock()
		defer d.segMu[0].RUnlock()
	}
	core.LookupBatch(d.ix, keys, vals, oks, nil)
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

// Put durably upserts (k, v): the record is framed into its WAL segment
// and applied in memory before Put returns; under SyncAlways it is also
// fsynced (group commit batches concurrent writers into one fsync).
func (d *Durable) Put(k core.Key, v core.Value) error {
	if err := d.Err(); err != nil {
		return err
	}
	d.stateMu.RLock()
	seg := d.seg(k)
	w := d.wals[seg]
	d.segMu[seg].Lock()
	rec := Record{Seq: d.seq.Add(1), Op: OpInsert, Key: k, Val: v}
	off, err := w.Append(rec)
	if err == nil {
		d.ix.Insert(k, v)
	}
	d.segMu[seg].Unlock()
	d.stateMu.RUnlock()
	if err != nil {
		d.fail(err)
		return err
	}
	if d.cfg.Fsync == SyncAlways {
		if err := w.SyncTo(off); err != nil {
			d.fail(err)
			return err
		}
	}
	d.bumpCheckpoint(1)
	return nil
}

// Del durably removes k, reporting whether it was present.
func (d *Durable) Del(k core.Key) (bool, error) {
	if err := d.Err(); err != nil {
		return false, err
	}
	d.stateMu.RLock()
	seg := d.seg(k)
	w := d.wals[seg]
	d.segMu[seg].Lock()
	rec := Record{Seq: d.seq.Add(1), Op: OpDelete, Key: k}
	off, err := w.Append(rec)
	ok := false
	if err == nil {
		ok = d.ix.Delete(k)
	}
	d.segMu[seg].Unlock()
	d.stateMu.RUnlock()
	if err != nil {
		d.fail(err)
		return false, err
	}
	if d.cfg.Fsync == SyncAlways {
		if err := w.SyncTo(off); err != nil {
			d.fail(err)
			return ok, err
		}
	}
	d.bumpCheckpoint(1)
	return ok, nil
}

// Insert implements MutableIndex. I/O errors latch into Err and turn
// further mutations into no-ops; callers that need the error use Put or
// InsertBatch.
func (d *Durable) Insert(k core.Key, v core.Value) { d.Put(k, v) }

// Delete implements MutableIndex; see Insert for error handling.
func (d *Durable) Delete(k core.Key) bool {
	ok, _ := d.Del(k)
	return ok
}

// batchParallelMin is the shard layer's fan-out rule applied to WAL
// segments: a batch below this size, or one that touches a single
// segment, is logged and applied on the calling goroutine. A pipelined
// connection's mixed groups break into write runs of two or three
// records; a goroutine per touched segment for those costs more in
// handoff and WaitGroup parking than the appends it overlaps.
const batchParallelMin = 512

// segScratch is the reusable grouping workspace of one batch, pooled on
// the Durable: per WAL segment, the batch's records (or keys plus their
// input positions, and the wrapped index's answers for them) in input
// order — the order later-wins upserts and first-wins deletes depend on —
// the frames built for them, and the segment's WAL end offset after the
// append (0 = untouched, -1 = failed).
type segScratch struct {
	recs  [][]core.KV
	keys  [][]core.Key
	idxs  [][]int32
	oks   [][]bool
	wrecs [][]Record
	offs  []int64
}

func (d *Durable) getScratch() *segScratch {
	sc, _ := d.scratch.Get().(*segScratch)
	if sc == nil || len(sc.offs) != d.segments {
		sc = &segScratch{
			recs:  make([][]core.KV, d.segments),
			keys:  make([][]core.Key, d.segments),
			idxs:  make([][]int32, d.segments),
			oks:   make([][]bool, d.segments),
			wrecs: make([][]Record, d.segments),
			offs:  make([]int64, d.segments),
		}
	}
	for seg := range sc.offs {
		sc.recs[seg] = sc.recs[seg][:0]
		sc.keys[seg] = sc.keys[seg][:0]
		sc.idxs[seg] = sc.idxs[seg][:0]
		sc.offs[seg] = 0
	}
	return sc
}

// touched reports whether the batch has records or keys for seg.
func (sc *segScratch) touched(seg int) bool {
	return len(sc.recs[seg]) > 0 || len(sc.keys[seg]) > 0
}

// forSegments runs fn for every segment the batch of n records touches:
// one goroutine per segment when n >= batchParallelMin records spread
// over several segments of a multi-core host, otherwise inline in
// segment order.
func (d *Durable) forSegments(n int, sc *segScratch, fn func(seg int)) {
	touched := 0
	for seg := range sc.offs {
		if sc.touched(seg) {
			touched++
		}
	}
	if n < batchParallelMin || touched < 2 || runtime.GOMAXPROCS(0) < 2 {
		for seg := range sc.offs {
			if sc.touched(seg) {
				fn(seg)
			}
		}
		return
	}
	var wg sync.WaitGroup
	for seg := range sc.offs {
		if sc.touched(seg) {
			wg.Add(1)
			go func(seg int) {
				defer wg.Done()
				fn(seg)
			}(seg)
		}
	}
	wg.Wait()
}

// logAndApply is one segment's share of a batch, under the segment lock:
// frame the group (upserts of sc.recs[seg], else deletes of sc.keys[seg];
// sequence numbers are assigned under the lock) and append it as one
// contiguous write — the span's wal stage — then run apply against the
// in-memory index — the shard stage. A failed append skips apply; either
// failure latches and marks the segment failed for commitBatch.
func (d *Durable) logAndApply(seg int, sc *segScratch, sp *core.Span, apply func() error) {
	d.segMu[seg].Lock()
	defer d.segMu[seg].Unlock()
	t0 := sp.Begin()
	wrecs := sc.wrecs[seg][:0]
	for _, r := range sc.recs[seg] {
		wrecs = append(wrecs, Record{Seq: d.seq.Add(1), Op: OpInsert, Key: r.Key, Val: r.Value})
	}
	for _, k := range sc.keys[seg] {
		wrecs = append(wrecs, Record{Seq: d.seq.Add(1), Op: OpDelete, Key: k})
	}
	sc.wrecs[seg] = wrecs
	off, err := d.wals[seg].Append(wrecs...)
	sp.End(core.StageWAL, t0)
	if err == nil {
		t0 = sp.Begin()
		err = apply()
		sp.End(core.StageShard, t0)
	}
	if err != nil {
		d.fail(err)
		off = -1
	}
	sc.offs[seg] = off
}

// commitBatch group-commits every segment the batch appended to (under
// SyncAlways; the span's fsync stage), returns the scratch to the pool
// and counts the batch toward the next checkpoint. If any segment's
// append, apply or fsync failed it returns the latched Err: the first of
// those failures in time, unless a concurrent writer's came earlier. The
// caller holds stateMu.RLock.
func (d *Durable) commitBatch(sc *segScratch, n int, sp *core.Span) error {
	always := d.cfg.Fsync == SyncAlways
	t0 := sp.Begin()
	failed := false
	for seg, off := range sc.offs {
		if always && off > 0 {
			if err := d.wals[seg].SyncTo(off); err != nil {
				d.fail(err)
				off = -1
			}
		}
		failed = failed || off < 0
	}
	if always {
		sp.End(core.StageFsync, t0)
	}
	d.scratch.Put(sc)
	d.stateMu.RUnlock()
	d.bumpCheckpoint(n)
	if failed {
		return d.Err()
	}
	return nil
}

// InsertBatch durably upserts recs: records are grouped by WAL segment,
// each group is framed as one contiguous append and applied under its
// segment lock (large multi-segment batches run their groups in
// parallel, see batchParallelMin), then each touched segment is
// group-committed once under SyncAlways. A call that hits an I/O error
// returns the store's latched Err — its own first failure, unless a
// concurrent writer's came earlier; segments that failed applied
// nothing. A store that has already failed returns Err with nothing
// done.
//
// Span attribution: WAL frame encode+append time lands in the wal stage,
// the in-memory apply in the shard stage (the span is not forwarded to
// the wrapped index), and the group commit in the fsync stage. Because
// segment groups may run in parallel, each stage is the *summed* time
// across segments and may exceed the batch's wall time.
func (d *Durable) InsertBatch(recs []core.KV, sp *core.Span) error {
	if err := d.Err(); err != nil || len(recs) == 0 {
		return err
	}
	if len(recs) == 1 && sp == nil {
		// A serving connection's solo SET: nothing to group. (A sampled
		// one takes the grouped path below for its stage attribution.)
		return d.Put(recs[0].Key, recs[0].Value)
	}
	d.stateMu.RLock()
	sc := d.getScratch()
	for _, r := range recs {
		seg := d.seg(r.Key)
		sc.recs[seg] = append(sc.recs[seg], r)
	}
	d.forSegments(len(recs), sc, func(seg int) {
		d.logAndApply(seg, sc, sp, func() error {
			return core.InsertBatch(d.ix, sc.recs[seg], nil)
		})
	})
	return d.commitBatch(sc, len(recs), sp)
}

// DeleteBatch durably removes keys with the same segment-grouped WAL
// framing, span attribution and error contract as InsertBatch. oks
// (len(keys), caller-owned) is overwritten: oks[i] reports whether
// keys[i] was present, with sequential (first-wins on duplicates)
// semantics inside the batch, and false for every key of a segment that
// failed.
func (d *Durable) DeleteBatch(keys []core.Key, oks []bool, sp *core.Span) error {
	clear(oks)
	if err := d.Err(); err != nil || len(keys) == 0 {
		return err
	}
	if len(keys) == 1 && sp == nil {
		var err error
		oks[0], err = d.Del(keys[0]) // solo DEL, as in InsertBatch
		return err
	}
	d.stateMu.RLock()
	sc := d.getScratch()
	for i, k := range keys {
		seg := d.seg(k)
		sc.keys[seg] = append(sc.keys[seg], k)
		sc.idxs[seg] = append(sc.idxs[seg], int32(i))
	}
	d.forSegments(len(keys), sc, func(seg int) {
		d.logAndApply(seg, sc, sp, func() error {
			group, idxs := sc.keys[seg], sc.idxs[seg]
			got := append(sc.oks[seg][:0], make([]bool, len(group))...)
			sc.oks[seg] = got
			err := core.DeleteBatch(d.ix, group, got, nil)
			for j, ok := range got {
				oks[idxs[j]] = ok
			}
			return err
		})
	})
	return d.commitBatch(sc, len(keys), sp)
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

// Checkpoint rotates to the next generation: the record set is captured
// under a consistent cut while fresh WAL segments are swapped in, the
// snapshot is written to a temp file and atomically renamed into place,
// and only then are the previous generation's files removed. A crash at
// any point leaves either the old snapshot plus complete old WAL, or the
// new snapshot — never a state that loses committed records.
func (d *Durable) Checkpoint() error {
	if err := d.Err(); err != nil {
		return err
	}
	if d.engine == EngineLSM {
		return d.flushLSM()
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	// Consistent cut: writers drain, the record set and sequence number
	// are captured, and fresh segments take over before writers resume.
	d.stateMu.Lock()
	newGen := d.gen + 1
	newWals, err := d.openGeneration(newGen)
	if err != nil {
		d.stateMu.Unlock()
		return err
	}
	recs := make([]core.KV, 0, d.ix.Len())
	d.ix.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		recs = append(recs, core.KV{Key: k, Value: v})
		return true
	})
	lastSeq := d.seq.Load()
	oldGen, oldWals := d.gen, d.wals
	d.gen, d.wals = newGen, newWals
	d.sinceCkpt.Store(0)
	d.stateMu.Unlock()

	// The old log must be fully durable before its records move into the
	// snapshot; Close fsyncs, after which in-flight SyncTo calls from
	// writers that raced the rotation resolve as already-covered.
	for _, w := range oldWals {
		if err := w.Close(); err != nil {
			d.fail(err)
			return err
		}
	}
	if err := WriteSnapshot(snapPath(d.dir, newGen), &SnapshotData{
		Meta: d.meta, Recs: recs, LastSeq: lastSeq,
	}); err != nil {
		d.fail(err)
		return err
	}
	// The new snapshot is durable: generations before it are garbage.
	st, err := scanDir(d.dir)
	if err == nil {
		for gen, path := range st.snaps {
			if gen < newGen {
				os.Remove(path)
			}
		}
		for gen, segs := range st.wals {
			if gen <= oldGen {
				for _, path := range segs {
					os.Remove(path)
				}
			}
		}
		syncDir(d.dir)
	}
	d.emit(obs.EvCheckpoint, len(recs), fmt.Sprintf("gen=%d", newGen))
	return nil
}

// Sync fsyncs every WAL segment (a durability barrier under SyncInterval
// and SyncNever).
func (d *Durable) Sync() error {
	d.stateMu.RLock()
	wals := d.wals
	d.stateMu.RUnlock()
	for _, w := range wals {
		if err := w.SyncTo(w.Size()); err != nil {
			d.fail(err)
			return err
		}
	}
	return nil
}

// Close stops background work, makes the WAL durable and closes the
// files. It does not checkpoint: the next Open replays the log.
func (d *Durable) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.bg.Wait()
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	var first error
	for _, w := range d.wals {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.closeRuns()
	return first
}

// Crash simulates a process kill: background work stops and the files
// are closed without any final fsync or checkpoint. State that was not
// yet synced is exactly what a real crash would lose. The store is
// unusable afterwards; reopen the directory with Open.
func (d *Durable) Crash() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.bg.Wait()
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	var first error
	for _, w := range d.wals {
		if err := w.Crash(); err != nil && first == nil {
			first = err
		}
	}
	d.closeRuns()
	return first
}

// closeRuns closes the LSM run readers (no-op for the snapshot engine).
// Run files are immutable, so closing loses nothing.
func (d *Durable) closeRuns() {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	for _, r := range d.runs {
		r.Close()
	}
	d.runs, d.runRefs = nil, nil
}
