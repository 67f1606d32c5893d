// Package lsm implements a BOURBON-style learned LSM-tree (Dai et al.,
// "From WiscKey to Bourbon: A Learned Index for Log-Structured Merge
// Trees", OSDI 2020): a log-structured merge tree whose immutable sorted
// runs carry *learned* (RadixSpline) indexes instead of block indexes —
// Bourbon likewise fits greedy piecewise-linear models per run. Writes go to
// a skip-list memtable; flushes create level-0 runs; leveled compaction
// merges runs downward with geometrically growing level budgets; deletes
// write tombstones that are dropped at the bottom level.
//
// Taxonomy: mutable / hybrid (LSM-tree branch) / delta-buffer — the
// memtable and upper levels are the delta, the learned models index the
// immutable runs, which is exactly the property Bourbon exploits (models
// are only built over data that never changes in place).
package lsm

import (
	"fmt"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/radixspline"
	"github.com/lix-go/lix/internal/skiplist"
)

// Config parameterizes the tree.
type Config struct {
	// MemtableCap is the number of entries that triggers a flush (0 -> 4096).
	MemtableCap int
	// L0Runs is the number of level-0 runs that triggers compaction (0 -> 4).
	L0Runs int
	// LevelRatio is the size ratio between adjacent levels (0 -> 10).
	LevelRatio int
	// Epsilon is the learned-index error bound for run models (0 selects
	// the RadixSpline default).
	Epsilon int
	// DisableLearnedIndex replaces the per-run learned indexes with plain
	// binary search — the baseline ("WiscKey") side of the Bourbon
	// comparison, used by the E18 ablation.
	DisableLearnedIndex bool
}

func (c *Config) fill() {
	if c.MemtableCap <= 0 {
		c.MemtableCap = 4096
	}
	if c.L0Runs <= 0 {
		c.L0Runs = 4
	}
	if c.LevelRatio <= 0 {
		c.LevelRatio = 10
	}
}

// tombstone is encoded in a parallel slice; runs never store it in Value.
// The per-run learned index is a RadixSpline, matching Bourbon's choice of
// a flat greedy piecewise-linear model over each immutable run.
type run struct {
	recs []core.KV
	dead []bool
	ix   *radixspline.Index // nil when learned indexes are disabled
	eps  int
}

func newRun(recs []core.KV, dead []bool, eps int, learned bool) *run {
	r := &run{recs: recs, dead: dead, eps: eps}
	if learned {
		ix, err := radixspline.Build(recs, eps, 0)
		if err != nil {
			// recs are sorted by construction.
			panic(err)
		}
		r.ix = ix
	}
	return r
}

// lowerBound locates the first record with key >= k, through the learned
// index when present, by binary search otherwise.
func (r *run) lowerBound(k core.Key) int {
	if r.ix != nil {
		return r.ix.LowerBound(k)
	}
	return core.LowerBoundKV(r.recs, k)
}

// get returns (value, isTombstone, found).
func (r *run) get(k core.Key) (core.Value, bool, bool) {
	i := r.lowerBound(k)
	if i < len(r.recs) && r.recs[i].Key == k {
		return r.recs[i].Value, r.dead[i], true
	}
	return 0, false, false
}

// DB is a learned LSM-tree. The zero value is not usable; call New.
type DB struct {
	cfg Config
	mem *skiplist.List
	// memDead tracks tombstones in the memtable (skiplist stores values).
	memDead map[core.Key]bool
	// levels[0] is a list of possibly-overlapping runs, newest first;
	// levels[i>0] hold exactly one run (or none).
	l0      []*run
	deep    []*run // deep[i] is level i+1; nil slots allowed
	liveCnt int
	// Flushes and Compactions count maintenance events (diagnostics).
	Flushes     int
	Compactions int

	hook obs.Hook
}

// SetObserver installs r to receive structural events (memtable flushes as
// EvBufferFlush, L0 and cascading compactions as EvCompaction with the
// target level in the detail); nil detaches.
func (db *DB) SetObserver(r obs.Recorder) { db.hook.SetRecorder(r) }

// New returns an empty learned LSM-tree.
func New(cfg Config) *DB {
	cfg.fill()
	return &DB{cfg: cfg, mem: skiplist.New(1), memDead: map[core.Key]bool{}}
}

// Len returns the number of live records.
func (db *DB) Len() int { return db.liveCnt }

// Put upserts (k, v).
func (db *DB) Put(k core.Key, v core.Value) {
	wasLive := db.live(k)
	db.mem.Insert(k, v)
	delete(db.memDead, k)
	if !wasLive {
		db.liveCnt++
	}
	db.maybeFlush()
}

// Delete removes k, returning true if it was live.
func (db *DB) Delete(k core.Key) bool {
	if !db.live(k) {
		return false
	}
	db.mem.Insert(k, 0)
	db.memDead[k] = true
	db.liveCnt--
	db.maybeFlush()
	return true
}

// live reports whether k currently resolves to a live record.
func (db *DB) live(k core.Key) bool {
	_, ok := db.Get(k)
	return ok
}

// Get returns the live value for k.
func (db *DB) Get(k core.Key) (core.Value, bool) {
	if v, ok := db.mem.Get(k); ok {
		if db.memDead[k] {
			return 0, false
		}
		return v, true
	}
	for _, r := range db.l0 {
		if v, dead, ok := r.get(k); ok {
			if dead {
				return 0, false
			}
			return v, true
		}
	}
	for _, r := range db.deep {
		if r == nil {
			continue
		}
		if v, dead, ok := r.get(k); ok {
			if dead {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

func (db *DB) maybeFlush() {
	if db.mem.Len() < db.cfg.MemtableCap {
		return
	}
	db.Flush()
}

// Flush persists the memtable as a new level-0 run and compacts if level 0
// is full. Exported so tests and benchmarks can force a stable state.
func (db *DB) Flush() {
	if db.mem.Len() == 0 {
		return
	}
	recs := make([]core.KV, 0, db.mem.Len())
	dead := make([]bool, 0, db.mem.Len())
	db.mem.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		recs = append(recs, core.KV{Key: k, Value: v})
		dead = append(dead, db.memDead[k])
		return true
	})
	db.l0 = append([]*run{newRun(recs, dead, db.cfg.Epsilon, !db.cfg.DisableLearnedIndex)}, db.l0...)
	db.mem = skiplist.New(1)
	db.memDead = map[core.Key]bool{}
	db.Flushes++
	db.hook.Emit(obs.EvBufferFlush, len(recs), "memtable")
	if len(db.l0) >= db.cfg.L0Runs {
		db.compactL0()
	}
}

// compactL0 merges all level-0 runs into level 1, cascading downward while
// levels exceed their budgets.
func (db *DB) compactL0() {
	runs := append([]*run(nil), db.l0...) // newest first
	if len(db.deep) > 0 && db.deep[0] != nil {
		runs = append(runs, db.deep[0])
	}
	bottom := db.isBottom(0)
	merged := mergeRuns(runs, bottom)
	if len(db.deep) == 0 {
		db.deep = append(db.deep, nil)
	}
	db.deep[0] = merged
	db.l0 = nil
	db.Compactions++
	db.hook.Emit(obs.EvCompaction, len(merged.recs), "l0->l1")
	db.cascade()
}

// cascade pushes oversized deep levels downward.
func (db *DB) cascade() {
	budget := db.cfg.MemtableCap * db.cfg.L0Runs
	for i := 0; i < len(db.deep); i++ {
		budget *= db.cfg.LevelRatio
		r := db.deep[i]
		if r == nil || len(r.recs) <= budget {
			continue
		}
		// Merge level i+1 into level i+2.
		runs := []*run{r}
		if i+1 < len(db.deep) && db.deep[i+1] != nil {
			runs = append(runs, db.deep[i+1])
		}
		bottom := db.isBottom(i + 1)
		merged := mergeRuns(runs, bottom)
		if i+1 >= len(db.deep) {
			db.deep = append(db.deep, nil)
		}
		db.deep[i+1] = merged
		db.deep[i] = nil
		db.Compactions++
		db.hook.Emit(obs.EvCompaction, len(merged.recs), fmt.Sprintf("l%d->l%d", i+1, i+2))
	}
}

// isBottom reports whether no occupied level exists below deep index i.
func (db *DB) isBottom(i int) bool {
	for j := i + 1; j < len(db.deep); j++ {
		if db.deep[j] != nil {
			return false
		}
	}
	return true
}

// mergeRuns merges runs (newest first) into a single run; newer records
// shadow older ones; tombstones are dropped when dropDead.
func mergeRuns(runs []*run, dropDead bool) *run {
	lens, total := runLens(runs)
	recs := make([]core.KV, 0, total)
	dead := make([]bool, 0, total)
	core.MergeNewestFirst(lens, func(s, i int) core.Key { return runs[s].recs[i].Key }, func(s, from, to int) bool {
		r := runs[s]
		for i := from; i < to; i++ {
			if !dropDead || !r.dead[i] {
				recs = append(recs, r.recs[i])
				dead = append(dead, r.dead[i])
			}
		}
		return true
	})
	eps, learned := 0, true
	if len(runs) > 0 {
		eps = runs[0].eps
		learned = runs[0].ix != nil
	}
	return newRun(recs, dead, eps, learned)
}

// runLens returns the record count of each run and their sum.
func runLens(runs []*run) ([]int, int) {
	lens, total := make([]int, len(runs)), 0
	for i, r := range runs {
		lens[i] = len(r.recs)
		total += len(r.recs)
	}
	return lens, total
}

// Range calls fn for live records with lo <= key <= hi ascending; fn
// returning false stops. Returns records visited.
func (db *DB) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	// Sources, newest first: the memtable's records in range, then every
	// run from its first key >= lo.
	mem := &run{}
	db.mem.Range(lo, hi, func(k core.Key, v core.Value) bool {
		mem.recs = append(mem.recs, core.KV{Key: k, Value: v})
		mem.dead = append(mem.dead, db.memDead[k])
		return true
	})
	srcs := []*run{mem}
	for _, level := range [][]*run{db.l0, db.deep} {
		for _, r := range level {
			if r != nil {
				i := r.lowerBound(lo)
				srcs = append(srcs, &run{recs: r.recs[i:], dead: r.dead[i:]})
			}
		}
	}
	lens, _ := runLens(srcs)
	count := 0
	core.MergeNewestFirst(lens, func(s, i int) core.Key { return srcs[s].recs[i].Key }, func(s, from, to int) bool {
		r := srcs[s]
		for i := from; i < to; i++ {
			if r.recs[i].Key > hi {
				return false
			}
			if !r.dead[i] {
				count++
				if !fn(r.recs[i].Key, r.recs[i].Value) {
					return false
				}
			}
		}
		return true
	})
	return count
}

// Runs returns the number of runs per level (level 0 first), diagnostics.
func (db *DB) Runs() []int {
	out := []int{len(db.l0)}
	for _, r := range db.deep {
		if r == nil {
			out = append(out, 0)
		} else {
			out = append(out, 1)
		}
	}
	return out
}

// ModelStats summarizes the learned-index footprint across runs — the
// Bourbon trade: model bytes replace block-index bytes.
func (db *DB) ModelStats() (runs, segments, modelBytes int) {
	visit := func(r *run) {
		runs++
		if r.ix != nil {
			st := r.ix.Stats()
			segments += st.Models
			modelBytes += st.IndexBytes
		}
	}
	for _, r := range db.l0 {
		visit(r)
	}
	for _, r := range db.deep {
		if r != nil {
			visit(r)
		}
	}
	return runs, segments, modelBytes
}

// Stats reports structure statistics.
func (db *DB) Stats() core.Stats {
	_, segs, modelBytes := db.ModelStats()
	var dataRecs int
	for _, r := range db.l0 {
		dataRecs += len(r.recs)
	}
	for _, r := range db.deep {
		if r != nil {
			dataRecs += len(r.recs)
		}
	}
	return core.Stats{
		Name:       "learned-lsm",
		Count:      db.liveCnt,
		IndexBytes: modelBytes,
		DataBytes:  dataRecs*17 + db.mem.Len()*16,
		Height:     1 + len(db.deep),
		Models:     segs,
	}
}
