package bench

import (
	"fmt"
	"os"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// batchSizes are the records per batch the gate measures.
var batchSizes = []int{16, 256, 4096}

// loopedInsertCap bounds the looped durable-insert measurement: every
// looped insert under FsyncAlways pays a full fsync, so the loop is
// sampled rather than run at full op count.
const loopedInsertCap = 1000

// batchSystem is one system under test. build returns the assembled stack
// plus a cleanup func; durable reports whether mutations pay fsyncs
// (which caps the looped-insert op count and widens the insert margin
// enough to measure the two sides one after the other).
type batchSystem struct {
	name    string
	durable bool
	build   func(recs []core.KV) (*lix.Stack, func(), error)
}

func batchSystems(cfg Config) []batchSystem {
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
			// group and one commit of the log, so throughput
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

// gateBatch measures batched against looped inserts and lookups at each of
// batchSizes, on an in-memory sharded stack and on a durable FsyncAlways
// stack. A batch is one Stack.Apply of puts (then Commit) or of gets. Every
// batched cell carries a floor against its looped sibling — the "batch >=
// looped" promise with headroom for runner noise. Lookups: see
// lookupFloor. In-memory inserts churn the allocator as the trees grow,
// which widens their jitter around ~1.0, so their floor is 0.8 (the
// regression class it guards was 0.52-0.76x). Both are near 1.0 and so
// measured by abMedian, cfg.Q operations per side and round. Durable
// batched inserts amortize fsyncs 10-100x: a hard 2x, measured once on a
// fresh stack per side.
func gateBatch(cfg Config) ([]*Table, []floor, error) {
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	// Fresh keys (absent from the preload) feed the insert measurements: a
	// round inserts abSlices slices, each a whole number of batches.
	maxSize := batchSizes[len(batchSizes)-1]
	freshKeys := mustKeys(dataset.Uniform, abSlices*roundUp(max(cfg.Q/abSlices, 1), maxSize), cfg.Seed+1)
	fresh := make([]core.Op, len(freshKeys))
	for i, k := range freshKeys {
		fresh[i] = core.Op{Kind: core.OpPut, Key: k + 1, Val: core.Value(i)}
	}

	var tables []*Table
	var floors []floor
	for _, sys := range batchSystems(cfg) {
		t, fs, err := sys.measure(cfg, keys, recs, fresh)
		if err != nil {
			return nil, nil, err
		}
		tables, floors = append(tables, t), append(floors, fs...)
	}
	return tables, floors, nil
}

// measure is gateBatch for one system.
func (sys batchSystem) measure(cfg Config, keys []core.Key, recs []core.KV, fresh []core.Op) (*Table, []floor, error) {
	t := &Table{
		ID: "BATCH",
		Title: fmt.Sprintf("Batched vs looped ops, %s, n=%d, %d ops (Kops/s)",
			sys.name, cfg.N, cfg.Q),
		Columns: []string{"op", "looped Kops", "batch size", "batched Kops", "speedup", "fsyncs looped/batched"},
	}
	var durLooped float64
	var durLoopedFsyncs uint64
	durLoopedOps := min(cfg.Q, loopedInsertCap)
	if sys.durable {
		var err error
		if durLooped, durLoopedFsyncs, err = sys.timeInserts(recs, fresh[:durLoopedOps], insertLooped); err != nil {
			return nil, nil, err
		}
	}
	// All lookup measurements share one preloaded stack: lookups never
	// mutate, and the preload (not the insert history) is what they hit.
	reads, closeReads, err := sys.build(recs)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: build %s: %w", sys.name, err)
	}
	defer closeReads()

	var floors []floor
	for _, size := range batchSizes {
		var batIns, loopIns float64
		var err error
		insFloor, fsyncCell := 0.8, "-"
		if sys.durable {
			var batFsyncs uint64
			batIns, batFsyncs, err = sys.timeInserts(recs, fresh[:cfg.Q], func(s *lix.Stack, puts []core.Op) error {
				return insertBatched(s, puts, size)
			})
			loopIns, insFloor = durLooped, 2
			fsyncCell = fmt.Sprintf("%d/%d (per %d/%d ops)", durLoopedFsyncs, batFsyncs, durLoopedOps, cfg.Q)
		} else {
			batIns, loopIns, err = sys.insertsAB(recs, fresh, cfg.Q, size)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bench: insert into %s: %w", sys.name, err)
		}
		batGet, loopGet, err := lookupsAB(reads, keys, cfg.Q, size)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: lookup on %s: %w", sys.name, err)
		}

		floors = append(floors,
			floor{name: fmt.Sprintf("batch/%s/insert/b%d", sys.name, size), got: batIns, ref: loopIns, min: insFloor},
			floor{name: fmt.Sprintf("batch/%s/lookup/b%d", sys.name, size), got: batGet, ref: loopGet, min: lookupFloor(size)},
		)
		t.AddRow("insert", loopIns/1e3, size, batIns/1e3, batIns/loopIns, fsyncCell)
		t.AddRow("lookup", loopGet/1e3, size, batGet/1e3, batGet/loopGet, "-")
	}
	return t, floors, nil
}

// lookupFloor is the batched lookups' floor at a batch size, within 20 %
// of the lowest of eight readings on a 2-vCPU host; it was 0.9 at every
// size while batched lookups measured ~1.0-1.1x looped. A shard's run
// locates all its keys a level at a time, an op that stays in the previous
// op's child skipping that node's search, so from 256 keys they measure
// 1.47-1.74x (floor 1.25). A batch of 16 of the gate's consecutive keys is
// one short run in leaves already in cache: 1.14-1.42x (floor 1.0).
func lookupFloor(size int) float64 {
	if size < 256 {
		return 1.0
	}
	return 1.25
}

// insertsAB compares batched (a) with looped (b) inserts of fresh records
// through abMedian: one stack per side and round, both grown by the same
// q records (rounded up so a slice is a whole number of batches), slice by
// slice.
func (sys batchSystem) insertsAB(preload []core.KV, fresh []core.Op, q, size int) (batched, looped float64, err error) {
	n := roundUp(max(q/abSlices, 1), size)
	return abMedian(abRounds, abSlices, func() (side, side, func(), error) {
		sb, closeB, err := sys.build(preload)
		if err != nil {
			return nil, nil, nil, err
		}
		sl, closeL, err := sys.build(preload)
		if err != nil {
			closeB()
			return nil, nil, nil, err
		}
		insertSide := func(insert func([]core.Op) error) side {
			off := 0
			return func() (float64, error) {
				chunk := fresh[off : off+n]
				off += n
				return timeOps(n, func() error { return insert(chunk) })
			}
		}
		return insertSide(func(puts []core.Op) error { return insertBatched(sb, puts, size) }),
			insertSide(func(puts []core.Op) error { return insertLooped(sl, puts) }),
			func() { closeB(); closeL() }, nil
	})
}

// lookupRounds is lookupsAB's round count. Its rounds build nothing, so it
// affords more of them than abRounds, and needs them: a burst of host
// contention lasts a few hundred milliseconds and during one a 4096-key
// batch, which fans out to a goroutine per shard, loses more than a Get
// does; seven rounds of 50 ms sat inside such a burst once in ten runs.
const lookupRounds = 11

// lookupsAB compares batched (a) with looped (b) lookups of q keys a slice
// through abMedian. Both sides read the same stack s — so a fresh one per
// round would change nothing between them — and the batched side reuses its
// result buffers, as a serving loop does: the looped side's Get returns
// results on the stack.
func lookupsAB(s *lix.Stack, keys []core.Key, q, size int) (batched, looped float64, err error) {
	n := roundUp(q, size)
	lookupOps := make([]core.Op, size)
	lookupVals := make([]core.Value, size)
	lookupOks := make([]bool, size)
	batchedSide := func() (float64, error) {
		return timeOps(n, func() error {
			for off := 0; off < n; off += size {
				for i := range lookupOps {
					lookupOps[i] = core.Op{Kind: core.OpGet, Key: keys[(off+i)%len(keys)]}
				}
				if err := s.Apply(lookupOps, lookupVals, lookupOks, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	loopedSide := func() (float64, error) {
		return timeOps(n, func() error {
			for i := 0; i < n; i++ {
				s.Get(keys[i%len(keys)])
			}
			return nil
		})
	}
	return abMedian(lookupRounds, abSlices, func() (side, side, func(), error) {
		return batchedSide, loopedSide, func() {}, nil
	})
}

// insertBatched applies puts size at a time, committing each batch as
// the acknowledged write it stands for.
func insertBatched(s *lix.Stack, puts []core.Op, size int) error {
	vals, oks := make([]core.Value, size), make([]bool, size)
	for off := 0; off < len(puts); off += size {
		batch := puts[off:min(off+size, len(puts))]
		if err := s.Apply(batch, vals[:len(batch)], oks[:len(batch)], nil); err != nil {
			return err
		}
		if err := s.Commit(nil); err != nil {
			return err
		}
	}
	return nil
}

func insertLooped(s *lix.Stack, puts []core.Op) error {
	for _, op := range puts {
		s.Insert(op.Key, op.Val)
	}
	return s.Err()
}

// timeInserts builds a fresh stack and times insert of puts on it; it
// returns ops/s and the fsyncs the inserts cost.
func (sys batchSystem) timeInserts(preload []core.KV, puts []core.Op, insert func(*lix.Stack, []core.Op) error) (float64, uint64, error) {
	s, cleanup, err := sys.build(preload)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: build %s: %w", sys.name, err)
	}
	defer cleanup()
	base := fsyncs(s)
	rate, err := timeOps(len(puts), func() error { return insert(s, puts) })
	return rate, fsyncs(s) - base, err
}

func fsyncs(s *lix.Stack) uint64 {
	if d := s.Durable(); d != nil {
		return d.Fsyncs()
	}
	return 0
}

// timeOps runs f, which performs n operations, and returns ops/s.
func timeOps(n int, f func() error) (float64, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	if d <= 0 {
		d = time.Nanosecond
	}
	return float64(n) / d.Seconds(), err
}

// roundUp returns the smallest multiple of m that is at least n.
func roundUp(n, m int) int { return (n + m - 1) / m * m }
