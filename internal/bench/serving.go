package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// ServingConfig sizes the sharded-serving throughput benchmark (lixbench
// -shards/-concurrency).
type ServingConfig struct {
	// N is the preloaded dataset size.
	N int `json:"n"`
	// OpsPerWorker is the operation count each worker goroutine issues.
	OpsPerWorker int `json:"ops_per_worker"`
	// Workers is the concurrent goroutine count.
	Workers int `json:"workers"`
	// Shards is the shard count of the sharded systems.
	Shards int `json:"shards"`
	// Seed drives key generation and op mixing.
	Seed int64 `json:"seed"`
}

// DefaultServingConfig is the scale used for the DESIGN.md scaling table.
func DefaultServingConfig() ServingConfig {
	return ServingConfig{N: 1_000_000, OpsPerWorker: 200_000, Workers: 8, Shards: 8, Seed: 7}
}

// ServingRow is one measured (system, workload) cell, the unit the
// regression harness compares across revisions.
type ServingRow struct {
	System   string  `json:"system"`
	Workload string  `json:"workload"` // read/write mix, e.g. "95/5"
	Workers  int     `json:"workers"`
	Shards   int     `json:"shards"`
	Mops     float64 `json:"mops"` // aggregate throughput, million ops/s
}

// servingSystem is one system under test: a display name plus a builder
// returning the get/put closures the workload drives.
type servingSystem struct {
	name  string
	build func(recs []core.KV) (get func(core.Key) (core.Value, bool), put func(core.Key, core.Value), err error)
}

func servingSystems(cfg ServingConfig) []servingSystem {
	return []servingSystem{
		{
			// The single-mutex baseline every sharded number is judged
			// against: one B+-tree behind one RWMutex.
			name: "btree+mutex",
			build: func(recs []core.KV) (func(core.Key) (core.Value, bool), func(core.Key, core.Value), error) {
				ix, err := lix.BulkBTree(0, recs)
				if err != nil {
					return nil, nil, err
				}
				var mu sync.RWMutex
				get := func(k core.Key) (core.Value, bool) {
					mu.RLock()
					v, ok := ix.Get(k)
					mu.RUnlock()
					return v, ok
				}
				put := func(k core.Key, v core.Value) {
					mu.Lock()
					ix.Insert(k, v)
					mu.Unlock()
				}
				return get, put, nil
			},
		},
		{
			// Assembled through the one-call stack constructor — the serving
			// path the façade documents.
			name: fmt.Sprintf("sharded-rw(%d)", cfg.Shards),
			build: func(recs []core.KV) (func(core.Key) (core.Value, bool), func(core.Key, core.Value), error) {
				s, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards})
				if err != nil {
					return nil, nil, err
				}
				return s.Get, s.Insert, nil
			},
		},
		{
			name: fmt.Sprintf("sharded-rcu(%d)", cfg.Shards),
			build: func(recs []core.KV) (func(core.Key) (core.Value, bool), func(core.Key, core.Value), error) {
				s, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards, Mode: lix.ShardRCU, DeltaCap: 8192})
				if err != nil {
					return nil, nil, err
				}
				return s.Get, s.Insert, nil
			},
		},
		{
			name: "xindex",
			build: func(recs []core.KV) (func(core.Key) (core.Value, bool), func(core.Key, core.Value), error) {
				x, err := lix.BulkXIndex(recs, 0, 0)
				if err != nil {
					return nil, nil, err
				}
				return x.Get, x.Insert, nil
			},
		},
	}
}

// RunServing measures aggregate mixed-workload throughput (95/5 and 50/50
// read/write) for the single-mutex baseline, both sharded modes and
// XIndex, at the configured worker count. It returns the rendered table
// plus the raw rows for the regression harness.
func RunServing(cfg ServingConfig) ([]*Table, []ServingRow, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	mixes := []struct {
		name    string
		readPct float64
	}{{"95/5", 0.95}, {"50/50", 0.50}}

	t := &Table{
		ID:      "SERVE",
		Title:   fmt.Sprintf("Sharded serving throughput, %d workers, %d shards, n=%d (Mops/s aggregate)", cfg.Workers, cfg.Shards, cfg.N),
		Columns: []string{"system", "95/5 Mops", "50/50 Mops"},
	}
	var rows []ServingRow
	for _, sys := range servingSystems(cfg) {
		cells := []interface{}{sys.name}
		for _, mix := range mixes {
			// A fresh instance per mix: writes mutate the structure and a
			// 50/50 run must not inherit a 95/5 run's growth.
			get, put, err := sys.build(recs)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: build %s: %w", sys.name, err)
			}
			mops := runMixed(keys, cfg, mix.readPct, get, put)
			cells = append(cells, mops)
			rows = append(rows, ServingRow{
				System: sys.name, Workload: mix.name,
				Workers: cfg.Workers, Shards: cfg.Shards, Mops: mops,
			})
		}
		t.AddRow(cells...)
	}
	return []*Table{t}, rows, nil
}

// runMixed drives cfg.Workers goroutines of the given read/write mix and
// returns aggregate Mops/s.
func runMixed(keys []core.Key, cfg ServingConfig, readPct float64, get func(core.Key) (core.Value, bool), put func(core.Key, core.Value)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := newRand(cfg.Seed + 31*int64(id))
			for o := 0; o < cfg.OpsPerWorker; o++ {
				k := keys[r.Intn(len(keys))]
				if r.Float64() < readPct {
					get(k)
				} else {
					put(k, core.Value(o))
				}
			}
		}(w)
	}
	wg.Wait()
	total := float64(cfg.OpsPerWorker * cfg.Workers)
	return total / float64(time.Since(start).Nanoseconds()) * 1000
}

// RunObsOverhead's schedule: obsOverheadRounds fresh pairs of stacks, and
// on each pair obsOverheadSlices alternating bare/observed slices that
// together issue OpsPerWorker operations per worker and side. A shared
// runner is disturbed for tens of milliseconds at a time and a whole pass
// swung by +/-10 %, which made a 0.85 floor a coin toss; slices of a few
// milliseconds put each disturbance on both sides, and fresh stacks keep
// one lucky memory layout from deciding a run.
const (
	obsOverheadRounds = 7
	obsOverheadSlices = 16
)

// ObsOverheadBare and ObsOverheadObserved name the pair RunObsOverhead
// reports.
const (
	ObsOverheadBare     = "obs/95/5/bare"
	ObsOverheadObserved = "obs/95/5/observed"
)

// RunObsOverhead is the serving mode's observed-vs-bare pair (lixbench
// -obs-overhead): the 95/5 mix on one keyset against two sharded-rw
// stacks that differ only in StackConfig.Metrics. Each side's result is
// its median throughput over the rounds. The observed result carries a
// blocking intra-run floor — at least 0.85 of the bare stack's
// throughput — so the per-operation cost of the obs wrapper (counters on
// every call, the clock on one call in lix.SampleEvery) is gated the way
// disabled tracing is. The run also checks that the wrapper counted
// every operation exactly.
func RunObsOverhead(cfg ServingConfig) ([]*Table, []BenchResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	slice := cfg
	slice.OpsPerWorker = (cfg.OpsPerWorker + obsOverheadSlices - 1) / obsOverheadSlices
	sliceOps := slice.OpsPerWorker * slice.Workers

	var bareMops, obsMops []float64
	var lookups, inserts, samples uint64
	for round := 0; round < obsOverheadRounds; round++ {
		bare, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: build bare stack: %w", err)
		}
		m := lix.NewMetrics("obs-overhead")
		observed, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards, Metrics: m})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: build observed stack: %w", err)
		}
		runtime.GC() // collect the previous round's stacks now, not during a slice

		// Writes upsert keys of the preload, so neither stack grows. The
		// slices are equal in size, so a side's rate over the round is
		// the harmonic mean of its slices' rates.
		var bareInv, obsInv float64
		runBare := func() { bareInv += 1 / runMixed(keys, slice, 0.95, bare.Get, bare.Insert) }
		runObserved := func() { obsInv += 1 / runMixed(keys, slice, 0.95, observed.Get, observed.Insert) }
		for s := 0; s < obsOverheadSlices; s++ {
			if (round+s)%2 == 0 {
				runBare()
				runObserved()
			} else {
				runObserved()
				runBare()
			}
		}
		bareMops = append(bareMops, obsOverheadSlices/bareInv)
		obsMops = append(obsMops, obsOverheadSlices/obsInv)
		snap := m.Snapshot()
		lookups += snap.Counters["lookups"]
		inserts += snap.Counters["inserts"]
		samples += snap.Histograms["get_ns"].Count
	}
	if got, want := lookups+inserts, uint64(obsOverheadRounds*obsOverheadSlices*sliceOps); got != want {
		return nil, nil, fmt.Errorf("bench: observed stacks counted %d operations, ran %d", got, want)
	}

	sort.Float64s(bareMops)
	sort.Float64s(obsMops)
	bareMed, obsMed := bareMops[len(bareMops)/2], obsMops[len(obsMops)/2]
	t := &Table{
		ID: "OBS",
		Title: fmt.Sprintf("Obs wrapper overhead: sharded-rw(%d), 95/5, %d workers, n=%d, median of %d rounds (get_ns holds %d samples of %d lookups)",
			cfg.Shards, cfg.Workers, cfg.N, obsOverheadRounds, samples, lookups),
		Columns: []string{"stack", "Mops", "vs bare"},
	}
	t.AddRow("bare", bareMed, "1.000")
	t.AddRow("observed", obsMed, fmt.Sprintf("%.3f", obsMed/bareMed))
	return []*Table{t}, []BenchResult{
		{Name: ObsOverheadBare, OpsPerSec: bareMed * 1e6},
		{Name: ObsOverheadObserved, OpsPerSec: obsMed * 1e6, MinRatioOf: ObsOverheadBare, MinRatio: 0.85},
	}, nil
}

// ---------------------------------------------------------------------------
// Regression harness
// ---------------------------------------------------------------------------

// BenchResult is one named throughput measurement inside a BenchFile.
type BenchResult struct {
	Name      string  `json:"name"` // "serving/<workload>/<system>"
	OpsPerSec float64 `json:"ops_per_sec"`

	// Per-request latency percentiles in nanoseconds, recorded by modes
	// that measure individual round-trips (the wire load generator).
	// Zero on compute-bound modes; CompareBenchFiles gates on throughput
	// only, so these ride along informationally.
	P50NS  uint64 `json:"p50_ns,omitempty"`
	P99NS  uint64 `json:"p99_ns,omitempty"`
	P999NS uint64 `json:"p999_ns,omitempty"`

	// MaxDrop, when positive, overrides the comparison-wide regression
	// threshold for this result (a fraction: 0.02 fails on a >2% drop).
	// Ratio-valued results (trace_overhead/off) use it to pin much
	// tighter bounds than the raw-throughput default. The new run's
	// value wins over the baseline's.
	MaxDrop float64 `json:"max_drop,omitempty"`

	// MinRatioOf and MinRatio, when set, declare a blocking intra-run
	// ratio gate: this result's throughput divided by the named sibling
	// result's (same file) must be at least MinRatio. Unlike the
	// old-vs-new drop check, the gate binds within a single run, so it
	// pins structural promises — batch ≥ looped, sharded ≥ single-mutex —
	// that must hold on every machine, not just relative to history.
	// The new run's constraint wins over the baseline's.
	MinRatioOf string  `json:"min_ratio_of,omitempty"`
	MinRatio   float64 `json:"min_ratio,omitempty"`
}

// BenchFile is the BENCH_<rev>.json document lixbench emits and compares.
type BenchFile struct {
	Rev     string        `json:"rev"`
	Config  ServingConfig `json:"config"`
	Results []BenchResult `json:"results"`
}

// MergeResults folds results into f, replacing any existing entry with
// the same name (a re-run of one lixbench mode supersedes that mode's
// earlier numbers) and appending the rest in order. Without replacement
// a repeated mode would accumulate duplicate names, and CompareBenchFiles
// — which resolves ratio references and baselines by name — would pair
// entries arbitrarily.
func (f *BenchFile) MergeResults(results []BenchResult) {
	byName := make(map[string]int, len(f.Results))
	for i, r := range f.Results {
		byName[r.Name] = i
	}
	for _, r := range results {
		if i, ok := byName[r.Name]; ok {
			f.Results[i] = r
			continue
		}
		byName[r.Name] = len(f.Results)
		f.Results = append(f.Results, r)
	}
}

// ServingBenchFile packages serving rows as a regression-comparable
// file. The sharded 50/50 rows carry blocking intra-run floors against
// the btree+mutex baseline, sized as collapse backstops rather than
// performance targets: on a single-core runner the systems legitimately
// converge with heavy scheduler noise (observed swings of +/-25%), so
// the floors only catch the failure class the old baseline actually
// exhibited — sharded-rcu at 0.03x the mutex when every publish
// re-merged the snapshot. The tight ratios live elsewhere: >= 3x
// multicore is the scaling test's gate, and absolute throughput is
// pinned by the old-vs-new drop threshold.
func ServingBenchFile(rev string, cfg ServingConfig, rows []ServingRow) BenchFile {
	f := BenchFile{Rev: rev, Config: cfg}
	for _, r := range rows {
		br := BenchResult{
			Name:      fmt.Sprintf("serving/%s/%s", r.Workload, r.System),
			OpsPerSec: r.Mops * 1e6,
		}
		if r.Workload == "50/50" {
			switch r.System {
			case fmt.Sprintf("sharded-rw(%d)", cfg.Shards):
				br.MinRatioOf, br.MinRatio = "serving/50/50/btree+mutex", 0.6
			case fmt.Sprintf("sharded-rcu(%d)", cfg.Shards):
				br.MinRatioOf, br.MinRatio = "serving/50/50/btree+mutex", 0.25
			}
		}
		f.Results = append(f.Results, br)
	}
	return f
}

// CompareBenchFiles flags results whose throughput dropped by more than
// threshold (a fraction, e.g. 0.15 for 15%) between old and new. A
// result carrying its own MaxDrop (on either side; the new run wins)
// is gated at that tighter bound instead. Results present on only one
// side are reported informationally, not as regressions.
//
// Results carrying a MinRatioOf/MinRatio constraint are additionally
// checked against their named sibling *within the new run*: a batch
// result pinned to its looped counterpart fails the comparison if the
// new run measured it below MinRatio times the sibling, regardless of
// how it moved against the baseline. The returned slices are
// human-readable report lines.
func CompareBenchFiles(old, new BenchFile, threshold float64) (regressions, notes []string) {
	oldByName := make(map[string]BenchResult, len(old.Results))
	for _, r := range old.Results {
		oldByName[r.Name] = r
	}
	newByName := make(map[string]BenchResult, len(new.Results))
	for _, r := range new.Results {
		newByName[r.Name] = r
	}
	seen := make(map[string]bool, len(new.Results))
	for _, nr := range new.Results {
		seen[nr.Name] = true
		or, hasOld := oldByName[nr.Name]

		// Intra-run ratio gate: binds on the new run alone, so it applies
		// even to results with no baseline. The new run's constraint wins;
		// a baseline-only constraint still binds so a new run cannot
		// silently shed a gate by omitting the fields.
		refName, minRatio := nr.MinRatioOf, nr.MinRatio
		if refName == "" && hasOld {
			refName, minRatio = or.MinRatioOf, or.MinRatio
		}
		if refName != "" && minRatio > 0 {
			ref, ok := newByName[refName]
			switch {
			case !ok:
				regressions = append(regressions,
					fmt.Sprintf("%s: ratio gate references %s, missing from new run", nr.Name, refName))
			case ref.OpsPerSec <= 0:
				regressions = append(regressions,
					fmt.Sprintf("%s: ratio gate references %s, which measured zero", nr.Name, refName))
			default:
				ratio := nr.OpsPerSec / ref.OpsPerSec
				line := fmt.Sprintf("%s: %.3fx of %s [floor %.2fx]", nr.Name, ratio, refName, minRatio)
				if ratio < minRatio {
					regressions = append(regressions, line)
				} else {
					notes = append(notes, line)
				}
			}
		}

		if !hasOld {
			notes = append(notes, fmt.Sprintf("new result %s (%.3g ops/s), no baseline", nr.Name, nr.OpsPerSec))
			continue
		}
		if or.OpsPerSec <= 0 {
			notes = append(notes, fmt.Sprintf("%s: baseline is zero, skipping", nr.Name))
			continue
		}
		thr := threshold
		if nr.MaxDrop > 0 {
			thr = nr.MaxDrop
		} else if or.MaxDrop > 0 {
			thr = or.MaxDrop
		}
		change := nr.OpsPerSec/or.OpsPerSec - 1
		line := fmt.Sprintf("%s: %.3g -> %.3g ops/s (%+.1f%%)", nr.Name, or.OpsPerSec, nr.OpsPerSec, 100*change)
		if thr != threshold {
			line += fmt.Sprintf(" [max drop %.1f%%]", 100*thr)
		}
		if change < -thr {
			regressions = append(regressions, line)
		} else {
			notes = append(notes, line)
		}
	}
	for name := range oldByName {
		if !seen[name] {
			notes = append(notes, fmt.Sprintf("baseline result %s missing from new run", name))
		}
	}
	sort.Strings(regressions)
	sort.Strings(notes)
	return regressions, notes
}
