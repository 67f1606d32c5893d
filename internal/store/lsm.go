package store

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/sst"
)

// The checkpoint engine. The in-memory index is the memtable and the WAL
// its durable image: a checkpoint folds the retired WAL generations into
// one sorted run (O(memtable), not O(dataset)), prepends it to the run
// list, and publishes the new list in a manifest. A size-tiered compactor
// merges runs of similar size so the list stays short and tombstones are
// eventually dropped. Flush, compaction and recovery are one last-wins
// merge (sst.MergeData) over different inputs.
//
// File layout next to the log:
//
//	lsm-<gen>.lix  manifest — snapshot codec: meta, watermark, and the runs
//	               section listing the live runs newest first
//	sst-<id>.lix   immutable sorted run (internal/sst format)
//
// Durability ordering: a new run file is fully durable (temp+fsync+rename)
// before the manifest that references it, the manifest is durable before
// any old file is removed, and recovery trusts only the newest decodable
// manifest plus the WAL generations at or after it. Replaying WAL records
// that a run already folded is idempotent (last-wins per key in sequence
// order), so a crash between WAL rotation and manifest publication loses
// nothing.
const (
	// compactMinRuns is the size-tiered window: the compactor merges the
	// first (oldest-most) window of this many consecutive runs whose sizes
	// are within compactSizeRatio of each other.
	compactMinRuns = 4
	// compactSizeRatio bounds max/min file size inside a merge window.
	compactSizeRatio = 4
	// compactMaxRuns is the fallback trigger: above this many runs the
	// oldest half is merged even if sizes are skewed.
	compactMaxRuns = 12
	// compactRoundsPerFlush bounds compaction work done in one checkpoint.
	compactRoundsPerFlush = 8
)

func manifestPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("lsm-%016x.lix", gen))
}

func runPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("sst-%016x.lix", id))
}

// nextRunID returns the smallest run ID above every run file on disk,
// referenced or orphaned — IDs are never reused, so a crash-orphaned run
// can never collide with a later flush.
func nextRunID(st dirState) uint64 {
	next := uint64(1)
	for id := range st.runs {
		next = max(next, id+1)
	}
	return next
}

// writeRun makes fd durable as run id and reads it back through sst.Open:
// a run is never listed before it has decoded cleanly from disk.
func writeRun(dir string, id uint64, fd *sst.FileData) (*sst.Reader, RunRef, error) {
	if err := sst.WriteFile(runPath(dir, id), fd); err != nil {
		return nil, RunRef{}, err
	}
	r, _, err := sst.Open(runPath(dir, id))
	if err != nil {
		return nil, RunRef{}, err
	}
	s := r.Stats()
	return r, RunRef{
		ID: id, Live: uint64(s.Live), Dead: uint64(s.Dead),
		Seq: s.Seq, MinKey: s.MinKey, MaxKey: s.MaxKey,
	}, nil
}

// writeBase makes recs the whole durable content of a fresh store at dir:
// run 1 (when recs is non-empty), then manifest generation 1 listing it.
func writeBase(dir string, meta map[string]string, recs []core.KV) ([]*sst.Reader, []RunRef, error) {
	var runs []*sst.Reader
	var refs []RunRef
	if len(recs) > 0 {
		r, ref, err := writeRun(dir, 1, &sst.FileData{Live: recs})
		if err != nil {
			return nil, nil, err
		}
		runs, refs = []*sst.Reader{r}, []RunRef{ref}
	}
	return runs, refs, writeManifest(dir, 1, meta, 0, refs)
}

// writeManifest durably publishes refs, newest first, as the run list of
// generation gen; lastSeq is the WAL watermark the runs cover.
func writeManifest(dir string, gen uint64, meta map[string]string, lastSeq uint64, refs []RunRef) error {
	return WriteSnapshot(manifestPath(dir, gen), &SnapshotData{Meta: meta, LastSeq: lastSeq, Runs: refs})
}

// openRuns loads the newest decodable manifest and opens every run it
// references, returning the manifest, the readers and their decoded
// contents, newest first — each run is read and validated once, and that
// decode is the one recovery merges. Decode failures skip to the older
// manifest generation (which only exists when the newer one was never made
// durable); a decodable manifest whose runs are missing or corrupt is a
// hard error — serving without them would silently drop committed writes.
func openRuns(dir string, st dirState, info *RecoveryInfo) (*SnapshotData, []*sst.Reader, []*sst.FileData, error) {
	gens := gensDesc(st.manifests)
	if len(gens) == 0 {
		if len(st.runs) > 0 {
			return nil, nil, nil, fmt.Errorf("store: %s holds %d run files but no manifest", dir, len(st.runs))
		}
		return &SnapshotData{}, nil, nil, nil // nothing checkpointed yet: no meta, no runs, watermark 0
	}
	var man *SnapshotData
	for _, gen := range gens {
		m, err := ReadSnapshot(st.manifests[gen])
		if err != nil {
			info.CorruptSnapshots++
			continue
		}
		man, info.SnapshotGen = m, gen
		break
	}
	if man == nil {
		return nil, nil, nil, fmt.Errorf("store: %s: no decodable manifest among %d generations", dir, len(gens))
	}
	readers := make([]*sst.Reader, len(man.Runs))
	datas := make([]*sst.FileData, len(man.Runs))
	for i, ref := range man.Runs {
		r, d, err := sst.Open(runPath(dir, ref.ID))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("store: manifest gen %d: run %016x: %w", info.SnapshotGen, ref.ID, err)
		}
		if d.Seq != ref.Seq || len(d.Live) != int(ref.Live) || len(d.Dead) != int(ref.Dead) {
			return nil, nil, nil, fmt.Errorf("store: run %016x does not match its manifest entry", ref.ID)
		}
		readers[i], datas[i] = r, d
		info.SnapshotRecs += len(d.Live)
	}
	return man, readers, datas, nil
}

// Checkpoint rotates the WAL to a fresh generation under a consistent cut
// and flushes the retired generations into a new run: O(WAL delta), never
// O(dataset). A crash at any point leaves either the old manifest plus the
// complete old WAL, or the new manifest — never a loss of committed records.
func (d *Durable) Checkpoint() error {
	if err := d.Err(); err != nil {
		return err
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	// Consistent cut: writers drain, the old log's buffer goes to its file
	// (and to disk under SyncAlways: a Commit that comes after the cut
	// covers the new log only), a fresh log takes over. lastSeq covers
	// every record in the retired generations.
	d.stateMu.Lock()
	newGen, old := d.gen+1, d.wal
	err := old.Commit(old.End(), d.cfg.Fsync == SyncAlways, nil)
	var fresh *WAL
	if err == nil {
		fresh, err = d.openLog(newGen)
	}
	if err != nil {
		d.stateMu.Unlock()
		d.fail(err)
		return err
	}
	lastSeq := d.seq.Load()
	d.gen, d.wal = newGen, fresh
	d.sinceCkpt.Store(0)
	d.stateMu.Unlock()

	err = d.flush(old, newGen, lastSeq)
	d.fail(err)
	return err
}

// flush folds the retired WAL generations (everything below newGen) into
// one new run, publishes manifest newGen, retires the old files and lets
// the compactor run. Caller holds ckptMu.
func (d *Durable) flush(old *WAL, newGen, lastSeq uint64) error {
	start := time.Now()
	// The retired log must be fully durable before its records move into
	// a run; Close fsyncs, after which in-flight Commit calls from writers
	// that raced the rotation resolve as already-covered.
	if err := old.Close(); err != nil {
		return err
	}
	// Every retired generation — lingering ones from earlier crashes
	// included — becomes one last-wins delta past the manifest watermark.
	st, err := scanDir(d.dir)
	if err != nil {
		return err
	}
	ops, _, err := readGenerations(st.wals, 0, newGen-1)
	if err != nil {
		return err
	}
	fd := fold(ops, d.manifestSeq)
	fd.Seq = lastSeq
	if len(d.runs) == 0 {
		// A tombstone only matters if an older run could hold the key;
		// with no older runs the delete already fully happened.
		fd.Dead = nil
	}
	newRuns, newRefs := d.runs, d.runRefs
	flushed, runBytes := len(fd.Live)+len(fd.Dead), int64(0)
	if flushed > 0 {
		r, ref, err := writeRun(d.dir, d.nextRunID, fd)
		if err != nil {
			return err
		}
		d.nextRunID++
		newRuns = append([]*sst.Reader{r}, d.runs...)
		newRefs = append([]RunRef{ref}, d.runRefs...)
		runBytes = r.Stats().FileBytes
	}

	// Manifest durable → old WAL generations and orphans are garbage.
	if err := writeManifest(d.dir, newGen, d.meta, lastSeq, newRefs); err != nil {
		return err
	}
	d.runMu.Lock()
	d.runs, d.runRefs = newRuns, newRefs
	d.manifestGen, d.manifestSeq = newGen, lastSeq
	d.runMu.Unlock()
	gcDir(d.dir, newGen, newRefs)
	d.emit(obs.EvCheckpoint, flushed, fmt.Sprintf("gen=%d runs=%d", newGen, len(newRefs)))
	d.publishLSMGauges()
	d.countWork(start, runBytes, false)
	return d.maybeCompact()
}

// gcDir removes what manifest generation keepGen has superseded: older
// manifests and WAL generations, and run files refs does not list (crash
// orphans).
func gcDir(dir string, keepGen uint64, refs []RunRef) {
	st, err := scanDir(dir)
	if err != nil {
		return
	}
	for gen, path := range st.manifests {
		if gen < keepGen {
			os.Remove(path)
		}
	}
	for gen, paths := range st.wals {
		if gen < keepGen {
			for _, path := range paths {
				os.Remove(path)
			}
		}
	}
	for _, ref := range refs {
		delete(st.runs, ref.ID)
	}
	for _, path := range st.runs {
		os.Remove(path)
	}
	sst.SyncDir(dir)
}

// pickCompaction scans merge windows of compactMinRuns consecutive runs
// from the oldest end and returns the first whose sizes are within
// compactSizeRatio (size-tiered: merging similar sizes keeps write
// amplification logarithmic). Above compactMaxRuns the oldest half is
// merged regardless. Indices are into d.runs (newest first).
func (d *Durable) pickCompaction() (lo, hi int, ok bool) {
	n := len(d.runs)
	for start := n - compactMinRuns; start >= 0; start-- {
		minB, maxB := int64(1<<62), int64(0)
		for _, r := range d.runs[start : start+compactMinRuns] {
			b := r.Stats().FileBytes
			minB, maxB = min(minB, b), max(maxB, b)
		}
		if maxB <= minB*compactSizeRatio {
			return start, start + compactMinRuns, true
		}
	}
	if n > compactMaxRuns {
		return n - n/2, n, true
	}
	return 0, 0, false
}

// maybeCompact runs size-tiered compaction rounds until no window
// qualifies (bounded per flush). Caller holds ckptMu.
func (d *Durable) maybeCompact() error {
	for i := 0; i < compactRoundsPerFlush; i++ {
		lo, hi, ok := d.pickCompaction()
		if !ok {
			return nil
		}
		if err := d.compact(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// compact merges runs[lo:hi] (a window of adjacent ages) into one new
// run and republishes the manifest at the same generation — compaction
// folds no new WAL records, so the sequence watermark is unchanged and
// an atomic rename over the same manifest name is the whole commit.
// Tombstones are dropped only when the window includes the oldest run;
// anywhere else a dropped tombstone would resurrect a shadowed record.
func (d *Durable) compact(lo, hi int) error {
	start := time.Now()
	window := d.runs[lo:hi]
	dropDead := hi == len(d.runs)
	datas := make([]*sst.FileData, len(window))
	for i, r := range window {
		var err error
		if datas[i], err = r.Data(); err != nil {
			return err
		}
	}
	fd := sst.MergeData(datas, dropDead)
	newRuns := append([]*sst.Reader(nil), d.runs[:lo]...)
	newRefs := append([]RunRef(nil), d.runRefs[:lo]...)
	merged, runBytes := len(fd.Live)+len(fd.Dead), int64(0)
	if merged > 0 {
		r, ref, err := writeRun(d.dir, d.nextRunID, fd)
		if err != nil {
			return err
		}
		d.nextRunID++
		newRuns = append(newRuns, r)
		newRefs = append(newRefs, ref)
		runBytes = r.Stats().FileBytes
	}
	newRuns = append(newRuns, d.runs[hi:]...)
	newRefs = append(newRefs, d.runRefs[hi:]...)

	if err := writeManifest(d.dir, d.manifestGen, d.meta, d.manifestSeq, newRefs); err != nil {
		return err
	}
	d.runMu.Lock()
	d.runs, d.runRefs = newRuns, newRefs
	for _, r := range window {
		d.lsmRetired.Add(r.Counters())
	}
	d.runMu.Unlock()
	for _, r := range window {
		r.Close()
		os.Remove(r.Stats().Path)
	}
	sst.SyncDir(d.dir)
	d.emit(obs.EvCompaction, merged, fmt.Sprintf("lsm merged %d runs into %d records (dropDead=%v)", len(window), merged, dropDead))
	d.publishLSMGauges()
	d.countWork(start, runBytes, true)
	return nil
}

// countWork adds a flush or a compaction that began at start and wrote a
// run of runBytes to that kind's wall-time and bytes-written counters.
func (d *Durable) countWork(start time.Time, runBytes int64, compaction bool) {
	m := d.cfg.Metrics
	if m == nil {
		return
	}
	ns, bytes := &m.FlushNS, &m.FlushBytes
	if compaction {
		ns, bytes = &m.CompactNS, &m.CompactBytes
	}
	ns.Add(uint64(time.Since(start)))
	bytes.Add(uint64(runBytes))
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

// LSMStats summarizes the run tiers.
type LSMStats struct {
	Runs        int
	RunBytes    int64
	LiveRecs    int
	Tombstones  int
	ManifestGen uint64
	ManifestSeq uint64
	Counters    sst.Counters
}

// Runs returns a snapshot of the open run readers, newest first. The
// readers stay valid until the next flush or compaction replaces them;
// callers should treat them as a point-in-time view.
func (d *Durable) Runs() []*sst.Reader {
	d.runMu.RLock()
	defer d.runMu.RUnlock()
	return append([]*sst.Reader(nil), d.runs...)
}

// Tiers returns a point-in-time read view over the current runs.
func (d *Durable) Tiers() *sst.Tiers { return sst.NewTiers(d.Runs()) }

// LSMStats reports the state of the run tiers.
func (d *Durable) LSMStats() LSMStats {
	d.runMu.RLock()
	defer d.runMu.RUnlock()
	st := LSMStats{Runs: len(d.runs), ManifestGen: d.manifestGen, ManifestSeq: d.manifestSeq}
	for _, r := range d.runs {
		rs := r.Stats()
		st.RunBytes += rs.FileBytes
		st.LiveRecs += rs.Live
		st.Tombstones += rs.Dead
	}
	st.Counters = sst.NewTiers(d.runs).Counters()
	st.Counters.Add(d.lsmRetired)
	return st
}

// publishLSMGauges refreshes the run gauges and pushes filter counter
// deltas into Metrics. Called after every flush and compaction (under
// ckptMu, which makes the delta bookkeeping race-free). Only trained
// filters count: both filter gauges read 0 while no run has been read
// through, and the FPR is that of the newest run that has.
func (d *Durable) publishLSMGauges() {
	m := d.cfg.Metrics
	if m == nil {
		return
	}
	st := d.LSMStats()
	var bits int64
	var fpr float64
	for _, r := range d.runs {
		bits += int64(r.Stats().FilterBits)
		if fpr == 0 {
			fpr = r.MeasuredFPR()
		}
	}
	m.LSMRuns.Set(int64(st.Runs))
	m.LSMRunBytes.Set(st.RunBytes)
	m.LSMTombs.Set(int64(st.Tombstones))
	m.FilterBytes.Set((bits + 7) / 8)
	m.FilterFPRPpm.Set(int64(fpr * 1e6))
	c := st.Counters
	m.FilterProbes.Add((c.Probes - c.RangeSkips) - (d.lsmPub.Probes - d.lsmPub.RangeSkips))
	m.FilterSkips.Add(c.FilterSkips - d.lsmPub.FilterSkips)
	m.FilterFPs.Add(c.FalsePositives - d.lsmPub.FalsePositives)
	d.lsmPub = c
}
