package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// The storage-engine gate runs lsmRounds write phases per engine, each on a
// fresh store and each taking lsmCheckpoints explicit checkpoints — a
// snapshot-engine checkpoint rewrites the full record set, an LSM
// checkpoint flushes only the accumulated delta — and then drives lsmProbes
// absent keys through the run set.
const (
	lsmRounds      = 3
	lsmCheckpoints = 6
	lsmProbes      = 30_000
)

// lsmRow is one engine's measured cells.
type lsmRow struct {
	writeRate  float64 // sustained inserts/s including checkpoint stalls
	ckptPerSec float64 // checkpoints/s over checkpoint wall time alone
	runs       int     // LSM only
	skipPct    float64 // LSM only: absent-key filter skip rate
}

// gateLSM measures the checkpoint cost of the two storage engines under
// the same write-heavy workload: cfg.Q inserts into a preloaded store of
// cfg.N records, checkpointing every Q/lsmCheckpoints ops, then cold-start
// recovery. The delta-to-dataset ratio matters: each LSM checkpoint pays
// O(delta) — dominated by training the new run's learned filter — while
// the snapshot engine pays O(N) to rewrite the record set, so the gap only
// shows when checkpoints are frequent relative to dataset size (the regime
// checkpointing exists for). The floor — LSM checkpoints at least 2x the
// snapshot engine's rate — pins the structural promise of the engine:
// flushing the memtable delta must beat rewriting the full record set, on
// every machine, or tiering is buying nothing. The LSM run additionally
// drives absent-key lookups through the run set and fails outright if the
// per-run learned filters skip fewer than 90% of the probes that reach
// them.
//
// The engines are timed one after the other, never with both stores open:
// a second live store slows the LSM side's checkpoints (1.4-2.0x measured
// against 2.8-4.6x apart). But an LSM write phase is six checkpoints of
// 10-50 ms, one host stall inside it halves the ratio, and on unchanged
// code that missed the floor one run in ten on a quiet host and four in ten
// on a busy one; so a whole write phase is one abMedian slice, and the
// result the median of lsmRounds rounds.
func gateLSM(cfg Config) ([]*Table, []floor, error) {
	recs := evenKV(cfg.N, cfg.Seed)
	engines := [2]string{lix.EngineLSM, lix.EngineSnapshot}
	var rows [2]lsmRow
	var dirs [2]string // each engine's latest store, crashed with a WAL tail
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	writePhase := func(i int) side {
		return func() (float64, error) {
			os.RemoveAll(dirs[i])
			var err error
			rows[i], dirs[i], err = lsmWritePhase(cfg, engines[i], recs)
			return rows[i].ckptPerSec, err
		}
	}
	lsmRate, snapRate, err := abMedian(lsmRounds, 1, func() (side, side, func(), error) {
		return writePhase(0), writePhase(1), func() {}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		ID: "LSM",
		Title: fmt.Sprintf("Checkpoint engines under write load, n=%d, %d writes, %d checkpoints, median of %d rounds",
			cfg.N, cfg.Q, lsmCheckpoints, lsmRounds),
		Columns: []string{"engine", "write Kops/s", "ckpt/s", "avg ckpt ms", "recover ms", "runs", "skip%"},
	}
	for i, rate := range []float64{lsmRate, snapRate} {
		// Cold-start recovery of the last round's store.
		re, err := lix.Open(dirs[i], lsmOptions(engines[i]))
		if err != nil {
			return nil, nil, err
		}
		recoverMs := float64(re.RecoveryInfo().Elapsed.Microseconds()) / 1e3
		re.Close()
		t.AddRow(engines[i], rows[i].writeRate/1e3, rate, 1e3/rate, recoverMs, rows[i].runs, rows[i].skipPct)
	}
	return []*Table{t}, []floor{{name: "lsm/checkpoint/lsm", got: lsmRate, ref: snapRate, min: 2}}, nil
}

func lsmOptions(engine string) lix.DurableOptions {
	return lix.DurableOptions{
		Engine:          engine,
		Fsync:           lix.FsyncNever, // measure checkpoint I/O, not WAL sync policy
		CheckpointEvery: -1,             // checkpoints are explicit, so both engines pay at the same points
	}
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

// lsmWritePhase builds a fresh store under engine, runs the checkpointing
// write phase and (on the LSM engine) the filter probe on it, then appends a
// WAL tail and kills it. It returns the store's directory for the caller to
// reopen and remove.
func lsmWritePhase(cfg Config, engine string, recs []core.KV) (row lsmRow, dir string, err error) {
	if dir, err = os.MkdirTemp("", "lixbench-lsm-*"); err != nil {
		return lsmRow{}, "", err
	}
	d, err := lix.NewDurable(dir, recs, lsmOptions(engine))
	if err != nil {
		return lsmRow{}, dir, err
	}

	runtime.GC() // collect the build's garbage now, not during a checkpoint
	// Write phase: fresh even keys with a checkpoint per cycle.
	perCkpt := max(cfg.Q/lsmCheckpoints, 1)
	r := newRand(cfg.Seed + 57)
	var ckptTime time.Duration
	start := time.Now()
	for c := 0; c < lsmCheckpoints; c++ {
		for i := 0; i < perCkpt; i++ {
			if err := d.Put(core.Key(r.Uint64())>>2&^1, core.Value(i)); err != nil {
				d.Close()
				return row, dir, err
			}
		}
		cs := time.Now()
		if err := d.Checkpoint(); err != nil {
			d.Close()
			return row, dir, err
		}
		ckptTime += time.Since(cs)
	}
	elapsed := time.Since(start)
	row.writeRate = float64(perCkpt*lsmCheckpoints) / elapsed.Seconds()
	row.ckptPerSec = float64(lsmCheckpoints) / ckptTime.Seconds()

	if engine == lix.EngineLSM {
		if err := probeLSMFilters(cfg, d, &row); err != nil {
			d.Close()
			return row, dir, err
		}
	}

	// What cold-start recovery will find: a WAL tail on top of the last
	// checkpoint, and a killed store.
	for i := 0; i < perCkpt; i++ {
		if err := d.Put(core.Key(r.Uint64())>>2&^1, core.Value(i)); err != nil {
			d.Close()
			return row, dir, err
		}
	}
	return row, dir, d.Crash()
}

// probeLSMFilters drives absent (odd) keys through the run set and
// fails unless the learned filters skip at least 90% of the run probes
// that reach them — the engine's structural read-path promise.
func probeLSMFilters(cfg Config, d *lix.Durable, row *lsmRow) error {
	tiers := d.Tiers()
	before := d.LSMStats().Counters
	row.runs = d.LSMStats().Runs
	r := newRand(cfg.Seed + 131)
	for i := 0; i < lsmProbes; i++ {
		k := core.Key(r.Uint64())>>2 | 1
		if _, ok, err := tiers.Get(k); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("bench: absent key %d found in the run set", k)
		}
	}
	after := d.LSMStats().Counters
	consulted := (after.Probes - after.RangeSkips) - (before.Probes - before.RangeSkips)
	if consulted == 0 {
		return fmt.Errorf("bench: no absent-key probe consulted a filter — run set not exercised")
	}
	skips := after.FilterSkips - before.FilterSkips
	row.skipPct = 100 * float64(skips) / float64(consulted)
	if row.skipPct < 90 {
		return fmt.Errorf("bench: learned filters skipped %.1f%% of absent-key run probes, want >= 90%%", row.skipPct)
	}
	return nil
}
