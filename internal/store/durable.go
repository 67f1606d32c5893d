package store

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
	// CorruptSnapshots counts manifest generations (and, in a directory of
	// the retired snapshot engine, snapshots) that failed validation and
	// were skipped.
	CorruptSnapshots int
	// Runs is the number of sorted runs loaded.
	Runs int
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Durable wraps a mutable in-memory index with write-ahead logging and
// sorted-run checkpoints. Every mutation is framed into a WAL segment
// before it is applied in memory; Checkpoint rotates to a fresh WAL
// generation and flushes the retired one's delta into an immutable run
// (see lsm.go). All methods are safe for concurrent use (writes to indexes
// that are not themselves concurrency-safe are serialized internally).
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

	ckptMu   sync.Mutex // serializes checkpoints (flush and compaction)
	ckptCh   chan struct{}
	stop     chan struct{}
	bg       sync.WaitGroup
	closed   atomic.Bool
	firstErr atomic.Pointer[error]

	hook     obs.Hook
	recovery RecoveryInfo

	scratch sync.Pool // *segScratch, the batch paths' grouping workspace

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

func walPath(dir string, gen uint64, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x-%03d.lix", gen, seg))
}

// dirState is the generation inventory of a store directory. snaps are
// the checkpoints of the retired snapshot-rewrite engine (snap-<gen>.lix),
// which Open still converts.
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
	single := map[string]map[uint64]string{"snap": st.snaps, "lsm": st.manifests, "sst": st.runs}
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
		} else if _, err := fmt.Sscanf(name, "wal-%016x-%03d.lix", &gen, &seg); err == nil {
			if st.wals[gen] == nil {
				st.wals[gen] = map[int]string{}
			}
			st.wals[gen][seg] = filepath.Join(dir, name)
		}
	}
	return st, nil
}

func (st dirState) empty() bool {
	return len(st.snaps) == 0 && len(st.wals) == 0 && len(st.manifests) == 0 && len(st.runs) == 0
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
	if d.runs, d.runRefs, err = writeBase(dir, 1, 1, d.meta, recs, 0); err != nil {
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
// manifest and its runs, decodes every WAL generation at or after it
// (segments in parallel, CRC-validated, torn or corrupt tails truncated)
// and folds the records past the manifest's watermark into one more sorted
// delta — the WAL tail is the newest run, not yet written — whose last-wins
// merge over the runs is the record set the index is rebuilt from. A
// directory of the retired snapshot-rewrite engine is converted first.
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
	if len(st.manifests) == 0 && len(st.snaps) > 0 {
		if err := convertLegacy(dir, st, &info); err != nil {
			return nil, err
		}
		if st, err = scanDir(dir); err != nil {
			return nil, err
		}
	}
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

// readGenerations decodes every WAL segment of generations lo..hi, one
// goroutine per file, and returns their committed records (in no
// particular order) and the torn or corrupt tail bytes passed over.
func readGenerations(wals map[uint64]map[int]string, lo, hi uint64) (ops []Record, truncated int64, err error) {
	var paths []string
	for gen, segs := range wals {
		if gen < lo || gen > hi {
			continue
		}
		for _, path := range segs {
			paths = append(paths, path)
		}
	}
	segs := make([]struct {
		recs  []Record
		trunc int64
		err   error
	}, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			segs[i].recs, segs[i].trunc, segs[i].err = readSegment(path)
		}()
	}
	wg.Wait()
	for _, seg := range segs {
		if seg.err != nil {
			return nil, 0, seg.err
		}
		ops = append(ops, seg.recs...)
		truncated += seg.trunc
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
	_, err := d.logOne(OpInsert, k, v)
	return err
}

// Del durably removes k, reporting whether it was present.
func (d *Durable) Del(k core.Key) (bool, error) { return d.logOne(OpDelete, k, 0) }

// logOne is Put and Del: one record logged and applied under its segment's
// lock, then group-committed. applied is true for an upsert and whether
// the key was present for a delete; a failed append applies nothing.
func (d *Durable) logOne(op OpKind, k core.Key, v core.Value) (applied bool, err error) {
	if err := d.Err(); err != nil {
		return false, err
	}
	d.stateMu.RLock()
	seg := d.seg(k)
	w := d.wals[seg]
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
	if err == nil && d.cfg.Fsync == SyncAlways {
		err = w.SyncTo(off)
	}
	if err != nil {
		d.fail(err)
		return applied, err
	}
	d.bumpCheckpoint(1)
	return applied, nil
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
func (d *Durable) Close() error { return d.shutdown((*WAL).Close) }

// Crash simulates a process kill: background work stops and the files
// are closed without any final fsync or checkpoint. State that was not
// yet synced is exactly what a real crash would lose. The store is
// unusable afterwards; reopen the directory with Open.
func (d *Durable) Crash() error { return d.shutdown((*WAL).Crash) }

// shutdown stops the background goroutines, then releases every WAL
// segment through release, and the run readers (immutable files: closing
// them loses nothing). It returns the first release error.
func (d *Durable) shutdown(release func(*WAL) error) error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.bg.Wait()
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	var first error
	for _, w := range d.wals {
		if err := release(w); err != nil && first == nil {
			first = err
		}
	}
	d.runMu.Lock()
	defer d.runMu.Unlock()
	for _, r := range d.runs {
		r.Close()
	}
	d.runs, d.runRefs = nil, nil
	return first
}
