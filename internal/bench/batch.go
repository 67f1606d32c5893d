package bench

import (
	"fmt"
	"os"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// BatchConfig sizes the batched-vs-looped throughput benchmark (lixbench
// -batch).
type BatchConfig struct {
	// N is the preloaded dataset size.
	N int `json:"n"`
	// Ops is the operation count per measurement.
	Ops int `json:"ops"`
	// Sizes are the batch sizes measured (records per batch).
	Sizes []int `json:"sizes"`
	// Shards is the shard count of the layered systems.
	Shards int `json:"shards"`
	// Seed drives key generation.
	Seed int64 `json:"seed"`
}

// batchSystem is one system under test. build returns the assembled stack
// plus a cleanup func; durable reports whether mutations pay fsyncs
// (which caps the looped-insert op count).
type batchSystem struct {
	name    string
	durable bool
	build   func(recs []core.KV) (*lix.Stack, func(), error)
}

func batchSystems(cfg BatchConfig) []batchSystem {
	return []batchSystem{
		{
			name: fmt.Sprintf("sharded(%d)", cfg.Shards),
			build: func(recs []core.KV) (*lix.Stack, func(), error) {
				s, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards})
				if err != nil {
					return nil, nil, err
				}
				return s, func() { s.Close() }, nil
			},
		},
		{
			// The headline case: under FsyncAlways a batch is one WAL frame
			// group and one group commit per touched segment, so throughput
			// should scale roughly linearly with batch size.
			name:    "durable-fsync",
			durable: true,
			build: func(recs []core.KV) (*lix.Stack, func(), error) {
				dir, err := os.MkdirTemp("", "lixbench-batch-*")
				if err != nil {
					return nil, nil, err
				}
				s, err := lix.NewStack(recs, lix.StackConfig{
					Dir: dir, Shards: cfg.Shards,
					Fsync: lix.FsyncAlways, CheckpointEvery: -1,
				})
				if err != nil {
					os.RemoveAll(dir)
					return nil, nil, err
				}
				return s, func() { s.Close(); os.RemoveAll(dir) }, nil
			},
		},
	}
}

// loopedInsertCap bounds the looped durable-insert measurement: every
// looped insert under FsyncAlways pays a full fsync, so the loop is
// sampled rather than run at full op count.
const loopedInsertCap = 1000

// lookupTrials is the best-of count for read measurements. Lookups are
// idempotent, so repeating the trial and keeping the fastest filters out
// scheduler noise that would otherwise trip the 15% regression gate.
const lookupTrials = 3

// insertTrials is the best-of count for write measurements; each trial
// rebuilds the stack, so this is kept lower than lookupTrials.
const insertTrials = 3

// minMeasure is the floor on a single read trial: at quick CI scale one
// pass over the op count finishes in ~1ms, far too short to average out
// scheduler noise, so trials repeat the pass until this much time passed.
const minMeasure = 50 * time.Millisecond

func bestOf(n int, trial func() float64) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		if v := trial(); v > best {
			best = v
		}
	}
	return best
}

// timed repeats one pass of opsPerPass operations until minMeasure has
// elapsed and returns the aggregate ops/s.
func timed(opsPerPass int, pass func()) float64 {
	start := time.Now()
	total := 0
	for {
		pass()
		total += opsPerPass
		if el := time.Since(start); el >= minMeasure {
			return opsPerSec(total, el)
		}
	}
}

// RunBatch measures batched vs looped insert and lookup throughput for
// each configured batch size, on an in-memory sharded stack and on a
// durable FsyncAlways stack. It returns rendered tables plus regression
// results named batch/<system>/<op>/{looped,b<size>}.
func RunBatch(cfg BatchConfig) ([]*Table, []BenchResult, error) {
	if cfg.N <= 0 {
		cfg.N = 1_000_000
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 100_000
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{16, 256, 1024}
	}
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	// Fresh keys (absent from the preload) feed the insert measurements.
	freshKeys := mustKeys(dataset.Uniform, cfg.Ops, cfg.Seed+1)
	fresh := make([]core.KV, len(freshKeys))
	for i, k := range freshKeys {
		fresh[i] = core.KV{Key: k + 1, Value: core.Value(i)}
	}

	var tables []*Table
	var results []BenchResult
	for _, sys := range batchSystems(cfg) {
		t := &Table{
			ID: "BATCH",
			Title: fmt.Sprintf("Batched vs looped ops, %s, n=%d, %d ops (Kops/s)",
				sys.name, cfg.N, cfg.Ops),
			Columns: []string{"op", "looped Kops", "batch size", "batched Kops", "speedup", "fsyncs looped/batched"},
		}

		// Insert measurements mutate, so every trial gets a fresh stack and
		// the fastest trial is kept. measureInsert returns (ops/s, fsyncs
		// issued during one trial).
		measureInsert := func(nOps int, run func(s *lix.Stack) error) (float64, uint64, error) {
			best, fs := 0.0, uint64(0)
			for trial := 0; trial < insertTrials; trial++ {
				s, cleanup, err := sys.build(recs)
				if err != nil {
					return 0, 0, fmt.Errorf("bench: build %s: %w", sys.name, err)
				}
				base := fsyncs(s)
				start := time.Now()
				err = run(s)
				v := opsPerSec(nOps, time.Since(start))
				fs = fsyncs(s) - base
				cleanup()
				if err != nil {
					return 0, 0, fmt.Errorf("bench: insert into %s: %w", sys.name, err)
				}
				if v > best {
					best = v
				}
			}
			return best, fs, nil
		}

		insOps := cfg.Ops
		if sys.durable && insOps > loopedInsertCap {
			insOps = loopedInsertCap
		}
		loopedIns, loopInsFsyncs, err := measureInsert(insOps, func(s *lix.Stack) error {
			for _, r := range fresh[:insOps] {
				s.Insert(r.Key, r.Value)
			}
			return s.Err()
		})
		if err != nil {
			return nil, nil, err
		}

		// All read measurements share one preloaded stack: lookups never
		// mutate, and the preload (not the insert history) is what they hit.
		rs, rcleanup, err := sys.build(recs)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: build %s: %w", sys.name, err)
		}
		loopedGet := bestOf(lookupTrials, func() float64 {
			return timed(cfg.Ops, func() {
				for i := 0; i < cfg.Ops; i++ {
					rs.Get(keys[i%len(keys)])
				}
			})
		})
		results = append(results,
			BenchResult{Name: fmt.Sprintf("batch/%s/insert/looped", sys.name), OpsPerSec: loopedIns},
			BenchResult{Name: fmt.Sprintf("batch/%s/lookup/looped", sys.name), OpsPerSec: loopedGet},
		)

		for _, size := range cfg.Sizes {
			size := size
			batchedIns, batchInsFsyncs, err := measureInsert(len(fresh), func(s *lix.Stack) error {
				for off := 0; off < len(fresh); off += size {
					end := off + size
					if end > len(fresh) {
						end = len(fresh)
					}
					if err := s.InsertBatch(fresh[off:end], nil); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, nil, err
			}

			// The batched side reuses its result buffers, as a serving loop
			// does: the looped side's Get returns results on the stack.
			lookupKeys := make([]core.Key, size)
			lookupVals := make([]core.Value, size)
			lookupOks := make([]bool, size)
			batchedGet := bestOf(lookupTrials, func() float64 {
				return timed(cfg.Ops, func() {
					for off := 0; off < cfg.Ops; off += size {
						for i := range lookupKeys {
							lookupKeys[i] = keys[(off+i)%len(keys)]
						}
						rs.LookupBatch(lookupKeys, lookupVals, lookupOks, nil)
					}
				})
			})

			// Every batched result carries a blocking intra-run floor
			// against its looped sibling — the "batch >= looped" promise
			// with headroom for single-threaded runner noise. Lookups
			// measure ~1.0-1.1x with small jitter (floor 0.9, vs the 0.42x
			// the old grouping path regressed to). In-memory inserts churn
			// the allocator as the trees grow, which widens their jitter to
			// +/-15% around ~1.0, so their floor is 0.8 (the regression
			// class it guards was 0.52-0.76x). Durable batched inserts
			// amortize fsyncs 10-100x, so their floor is a hard 2x.
			insFloor := 0.8
			if sys.durable {
				insFloor = 2.0
			}
			results = append(results,
				BenchResult{
					Name: fmt.Sprintf("batch/%s/insert/b%d", sys.name, size), OpsPerSec: batchedIns,
					MinRatioOf: fmt.Sprintf("batch/%s/insert/looped", sys.name), MinRatio: insFloor,
				},
				BenchResult{
					Name: fmt.Sprintf("batch/%s/lookup/b%d", sys.name, size), OpsPerSec: batchedGet,
					MinRatioOf: fmt.Sprintf("batch/%s/lookup/looped", sys.name), MinRatio: 0.9,
				},
			)
			fsyncCell := "-"
			if sys.durable {
				fsyncCell = fmt.Sprintf("%d/%d (per %d/%d ops)", loopInsFsyncs, batchInsFsyncs, insOps, len(fresh))
			}
			t.AddRow("insert", loopedIns/1e3, size, batchedIns/1e3, batchedIns/loopedIns, fsyncCell)
			t.AddRow("lookup", loopedGet/1e3, size, batchedGet/1e3, batchedGet/loopedGet, "-")
		}
		rcleanup()
		tables = append(tables, t)
	}
	return tables, results, nil
}

func fsyncs(s *lix.Stack) uint64 {
	if d := s.Durable(); d != nil {
		return d.Fsyncs()
	}
	return 0
}

func opsPerSec(n int, d time.Duration) float64 {
	if d <= 0 {
		d = time.Nanosecond
	}
	return float64(n) / d.Seconds()
}
