package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/segment"
	"github.com/lix-go/lix/internal/sst"
)

// The checkpoint gate runs lsmRounds write phases per side, each on a fresh
// store with lsmCheckpoints checkpoints, then lsmProbes absent-key probes.
const (
	lsmRounds      = 3
	lsmCheckpoints = 6
	lsmProbes      = 30_000
)

// lsmRow is one side's measured cells.
type lsmRow struct {
	writeRate  float64 // sustained inserts/s including checkpoint stalls
	ckptPerSec float64 // checkpoints/s over checkpoint wall time alone
	runs       int     // store side only
	skipPct    float64 // store side only: absent-key filter skip rate
}

// gateLSM holds a checkpoint to the promise of the run tiers. Under the
// same write-heavy workload — cfg.Q inserts into a preloaded store of cfg.N
// records, a checkpoint every Q/lsmCheckpoints ops — one side calls
// Checkpoint, which pays O(delta) (fold the retired WAL, write one small
// run; no model is trained, a run's models wait for a reader), the other
// writes the full record set as one run file, the O(N) rewrite a checkpoint
// was before there were tiers. The gap only shows when checkpoints are
// frequent relative to dataset size, the regime checkpointing exists for;
// the floor says the flush must win there on every machine. The store
// side also fails outright if the per-run learned filters skip fewer than
// 90% of the absent-key probes that reach them, and the table sets its
// cold start (manifest, runs, WAL tail, merge, index build) beside the
// least one can cost: one validated decode of the rewrite side's flat file
// and the same index built over it.
//
// The sides are timed one after the other, never with both stores open (a
// second live store slows the first one's checkpoints), but one host stall
// inside six checkpoints of a few milliseconds halves the ratio: so a
// whole write phase is one abMedian slice, and the result the median of
// lsmRounds rounds.
func gateLSM(cfg Config) ([]*Table, []floor, error) {
	recs := evenKV(cfg.N, cfg.Seed)
	var rows [2]lsmRow
	var dirs [2]string // each side's latest store, crashed with a WAL tail
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	writePhase := func(i int) side {
		return func() (float64, error) {
			os.RemoveAll(dirs[i])
			var err error
			rows[i], dirs[i], err = lsmWritePhase(cfg, i == 1, recs)
			return rows[i].ckptPerSec, err
		}
	}
	lsmRate, rewriteRate, err := abMedian(lsmRounds, 1, func() (side, side, func(), error) {
		return writePhase(0), writePhase(1), func() {}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Cold start of the last round, both ways.
	re, err := lsmStack(dirs[0], nil)
	if err != nil {
		return nil, nil, err
	}
	recoverMs := [2]float64{float64(re.Durable().RecoveryInfo().Elapsed.Microseconds()) / 1e3}
	re.Close()
	start := time.Now()
	_, flat, err := sst.Open(flatPath(dirs[1]))
	if err != nil {
		return nil, nil, err
	}
	if _, err := lix.NewStack(flat.Live, lix.StackConfig{}); err != nil {
		return nil, nil, err
	}
	recoverMs[1] = float64(time.Since(start).Microseconds()) / 1e3

	t := &Table{
		ID: "LSM",
		Title: fmt.Sprintf("Checkpoint as a delta flush against a rewrite of the record set, n=%d, %d writes, %d checkpoints, median of %d rounds",
			cfg.N, cfg.Q, lsmCheckpoints, lsmRounds),
		Columns: []string{"checkpoint", "write Kops/s", "ckpt/s", "avg ckpt ms", "recover ms", "runs", "skip%"},
	}
	for i, rate := range []float64{lsmRate, rewriteRate} {
		t.AddRow([]string{"lsm", "rewrite"}[i], rows[i].writeRate/1e3, rate, 1e3/rate, recoverMs[i], rows[i].runs, rows[i].skipPct)
	}
	return []*Table{t}, []floor{{name: "lsm/checkpoint/lsm", got: lsmRate, ref: rewriteRate, min: 2}}, nil
}

// lsmStack creates the durable stack at dir seeded with recs, or opens
// it when recs is nil.
func lsmStack(dir string, recs []core.KV) (*lix.Stack, error) {
	return lix.NewStack(recs, lix.StackConfig{
		Dir:             dir,
		Fsync:           lix.FsyncNever, // measure checkpoint I/O, not WAL sync policy
		CheckpointEvery: -1,             // checkpoints are explicit, so both sides pay at the same points
	})
}

// flatPath is where the rewrite side keeps its one run file: inside the
// store directory, under a name the store does not claim.
func flatPath(dir string) string { return filepath.Join(dir, "rewrite.run") }

// rewriteAll is the rewrite side's checkpoint: the whole current record
// set, scanned out of the store and written as one durable run file.
func rewriteAll(d *lix.Durable, path string) error {
	fd := &sst.FileData{Live: make([]core.KV, 0, d.Len())} // sized once: the scan is the cost, not slice growth
	d.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		fd.Live = append(fd.Live, core.KV{Key: k, Value: v})
		return true
	})
	return sst.WriteFile(path, fd)
}

// evenKV builds n sorted distinct even keys: everything the benchmark
// ever inserts is even, so any odd key is absent by construction and the
// filter probe phase needs no bookkeeping.
func evenKV(n int, seed int64) []core.KV {
	r := newRand(seed)
	seen := make(map[core.Key]struct{}, n)
	keys := make([]core.Key, 0, n)
	for len(keys) < n {
		k := core.Key(r.Uint64()) >> 2 &^ 1
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	recs := make([]core.KV, n)
	for i, k := range keys {
		recs[i] = core.KV{Key: k, Value: core.Value(i)}
	}
	return recs
}

// lsmWritePhase builds a fresh store, runs the checkpointing write phase on
// it — the store's own checkpoints and then the filter probe, or with
// rewrite a full rewrite at the same points — then appends a WAL tail and
// kills it. It returns the store's directory for the caller to reopen and
// remove.
func lsmWritePhase(cfg Config, rewrite bool, recs []core.KV) (row lsmRow, dir string, err error) {
	if dir, err = os.MkdirTemp("", "lixbench-lsm-*"); err != nil {
		return row, "", err
	}
	st, err := lsmStack(dir, recs)
	if err != nil {
		return row, dir, err
	}
	d := st.Durable()
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	checkpoint := d.Checkpoint
	if rewrite {
		checkpoint = func() error { return rewriteAll(d, flatPath(dir)) }
	}
	perCkpt := max(cfg.Q/lsmCheckpoints, 1)
	r := newRand(cfg.Seed + 57)
	puts := func() error { // one cycle's worth of fresh even keys
		for i := 0; i < perCkpt; i++ {
			if err := d.Put(core.Key(r.Uint64())>>2&^1, core.Value(i)); err != nil {
				return err
			}
		}
		return nil
	}

	runtime.GC() // collect the build's garbage now, not during a checkpoint
	var ckptTime time.Duration
	start := time.Now()
	for c := 0; c < lsmCheckpoints; c++ {
		if err = puts(); err != nil {
			return row, dir, err
		}
		cs := time.Now()
		if err = checkpoint(); err != nil {
			return row, dir, err
		}
		ckptTime += time.Since(cs)
	}
	row.writeRate = float64(perCkpt*lsmCheckpoints) / time.Since(start).Seconds()
	row.ckptPerSec = float64(lsmCheckpoints) / ckptTime.Seconds()
	if !rewrite {
		if err = probeLSMFilters(cfg, d, &row); err != nil {
			return row, dir, err
		}
	}
	// What cold-start recovery will find: a WAL tail on top of the last
	// checkpoint, and a killed store.
	if err = puts(); err != nil {
		return row, dir, err
	}
	return row, dir, d.Crash()
}

// probeLSMFilters drives absent (odd) keys through the run set and
// fails unless the learned filters skip at least 90% of the run probes
// that reach them — the run tiers' structural read-path promise.
func probeLSMFilters(cfg Config, d *lix.Durable, row *lsmRow) error {
	tiers := d.Tiers() // nothing has read through these runs yet: their counters start at zero
	row.runs = len(tiers.Runs())
	r := newRand(cfg.Seed + 131)
	for i := 0; i < lsmProbes; i++ {
		k := core.Key(r.Uint64())>>2 | 1
		if _, ok, err := tiers.Get(k); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("bench: absent key %d found in the run set", k)
		}
	}
	c := tiers.Counters()
	consulted := c.Probes - c.RangeSkips
	if consulted == 0 {
		return fmt.Errorf("bench: no absent-key probe consulted a filter — run set not exercised")
	}
	row.skipPct = 100 * float64(c.FilterSkips) / float64(consulted)
	if row.skipPct < 90 {
		return fmt.Errorf("bench: learned filters skipped %.1f%% of absent-key run probes, want >= 90%%", row.skipPct)
	}
	return nil
}

// e18Runs is how many runs E18's store holds: the seed run and one per
// checkpoint.
const e18Runs = 5

// E18LearnedLSM — Bourbon on the store's own run files. Each run keeps its
// PLA fence model and learned filter in memory while its data pages stay on
// disk, and a get goes newest run first through key range, filter, fence
// model and one page read. The seed run holds a random half of a lognormal
// keyset. The other half goes in, in permuted order, through explicit
// checkpoints that each flush two thirds of what is left, so runs shrink
// from oldest to newest and no window of the size-tiered compactor
// qualifies. A 90 %-hit mix then probes the run set alone, not the
// in-memory index, after an untimed pass that trains every run and checks
// its answers against the store's. One row per run, newest first, then the
// set.
func E18LearnedLSM(cfg Config) ([]*Table, error) {
	keys := mustKeys(dataset.Lognormal, cfg.N, cfg.Seed)
	probes := dataset.LookupMix(keys, cfg.Q, 0.9, cfg.Seed+22)
	perm := newRand(cfg.Seed + 23).Perm(len(keys))
	seed, rest := perm[:len(keys)/2], perm[len(keys)/2:]
	slices.Sort(seed)
	recs := make([]core.KV, len(seed))
	for j, i := range seed {
		recs[j] = core.KV{Key: keys[i], Value: core.Value(i)}
	}
	dir, err := os.MkdirTemp("", "lixbench-e18-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := lsmStack(dir, recs)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	d := st.Durable()
	for c, done := 1, 0; c < e18Runs; c++ {
		next := len(rest) - (len(rest)-done)/3
		if c == e18Runs-1 {
			next = len(rest)
		}
		for _, i := range rest[done:next] {
			if err := d.Put(keys[i], core.Value(i)); err != nil {
				return nil, err
			}
		}
		if err := d.Checkpoint(); err != nil {
			return nil, err
		}
		done = next
	}

	tiers := d.Tiers()
	for _, k := range probes {
		v, ok, err := tiers.Get(k)
		if err != nil {
			return nil, err
		}
		if want, wok := d.Get(k); ok != wok || v != want {
			return nil, fmt.Errorf("bench: E18 run set answers (%d, %v) for key %d, the store (%d, %v)", v, ok, k, want, wok)
		}
	}
	runs := tiers.Runs()
	before := make([]sst.Counters, len(runs))
	for i, r := range runs {
		before[i] = r.Counters()
	}
	var sink core.Value
	var getErr error
	ns := nsPerOp(len(probes), func() {
		for _, k := range probes {
			v, _, err := tiers.Get(k)
			if err != nil {
				getErr = err
				return
			}
			sink += v
		}
	})
	_ = sink
	if getErr != nil {
		return nil, getErr
	}

	t := &Table{
		ID: "E18",
		Title: fmt.Sprintf("Learned LSM (Bourbon) on the store's run files: lognormal n=%d, %d gets at 90%% hits, %d runs newest first",
			cfg.N, len(probes), len(runs)),
		Columns: []string{"run", "live", "fences", "segments", "model_B", "fence_B", "filter_B", "holdout_fpr%", "filter_skip%", "pages/get", "ns/get"},
	}
	row := func(name string, st sst.RunStats, fpr any, c sst.Counters, ns any) {
		skip := 0.0
		if reached := c.Probes - c.RangeSkips; reached > 0 {
			skip = 100 * float64(c.FilterSkips) / float64(reached)
		}
		t.AddRow(name, st.Live, st.Fences, st.Segments, st.Segments*segment.SegmentBytes, st.Fences*8, st.FilterBits/8,
			fpr, skip, float64(c.PageReads)/float64(len(probes)), ns)
	}
	var all sst.RunStats
	var allC sst.Counters
	for i, r := range runs {
		st, c, b := r.Stats(), r.Counters(), before[i]
		c = sst.Counters{Probes: c.Probes - b.Probes, RangeSkips: c.RangeSkips - b.RangeSkips,
			FilterSkips: c.FilterSkips - b.FilterSkips, PageReads: c.PageReads - b.PageReads}
		row(fmt.Sprint(i), st, 100*r.MeasuredFPR(), c, "-")
		all.Live, all.Fences, all.Segments, all.FilterBits = all.Live+st.Live, all.Fences+st.Fences, all.Segments+st.Segments, all.FilterBits+st.FilterBits
		allC.Add(c)
	}
	row("all", all, "-", allC, ns)
	return []*Table{t}, nil
}
