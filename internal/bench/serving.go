package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// servingSystem is one system under test: a display name plus a builder
// returning the get/put closures the workload drives.
type servingSystem struct {
	name  string
	build func(recs []core.KV) (get func(core.Key) (core.Value, bool), put func(core.Key, core.Value), err error)
}

func servingSystems(cfg Config) []servingSystem {
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

// The serving floors' schedule: their margins are wide, so fewer rounds
// and slices than abMedian's default.
const (
	servingRounds = 3
	servingSlices = 4
)

// gateServing measures aggregate mixed-workload throughput (95/5 and 50/50
// read/write) for the single-mutex baseline, the sharded layer and
// XIndex, cfg.Q operations on each of cfg.Workers goroutines. The floor
// on the sharded 50/50 rate against btree+mutex is a collapse backstop,
// not a performance target: on a one- or two-core runner the systems
// legitimately converge with heavy scheduler noise, so the floor only
// catches the failure class this table once showed — a sharded system at
// 0.03x the mutex. The tight ratio, >= 3x on a multicore host, is
// TestShardedScaling's.
//
// The floor is not read off the table. Its cells are one 25 ms pass
// each, one after the other, and over ten runs on a shared 2-core host the
// sharded-rw/mutex ratio of two such cells ranged 0.55-1.58; the gated
// pair is measured again through abMedian.
func gateServing(cfg Config) ([]*Table, []floor, error) {
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	t := &Table{
		ID:      "SERVE",
		Title:   fmt.Sprintf("Sharded serving throughput, %d workers, %d shards, n=%d (Mops/s aggregate)", cfg.Workers, cfg.Shards, cfg.N),
		Columns: []string{"system", "95/5 Mops", "50/50 Mops"},
	}
	systems := servingSystems(cfg)
	for _, sys := range systems {
		cells := []interface{}{sys.name}
		for _, readPct := range []float64{0.95, 0.50} {
			// A fresh instance per mix: writes mutate the structure and a
			// 50/50 run must not inherit a 95/5 run's growth.
			get, put, err := sys.build(recs)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: build %s: %w", sys.name, err)
			}
			cells = append(cells, runMixed(keys, cfg, readPct, get, put))
		}
		t.AddRow(cells...)
	}

	sharded, mutex := systems[1], systems[0]
	got, ref, err := abMedian(servingRounds, servingSlices, func() (side, side, func(), error) {
		var sides [2]side
		for i, sys := range []servingSystem{sharded, mutex} {
			get, put, err := sys.build(recs)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("bench: build %s: %w", sys.name, err)
			}
			sides[i] = mixedSide(keys, cfg, 0.50, get, put)
		}
		return sides[0], sides[1], func() {}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	floors := []floor{{name: "serving/50/50/" + sharded.name, got: got, ref: ref, min: 0.6}}

	ct, cf, err := callerScaling(keys, recs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return []*Table{t, ct}, append(floors, cf...), nil
}

// callerScalingFloor is what a second caller must multiply sharded-rw's
// rate by on the repo benchmark's in-process mix. On the 2-vCPU sandbox the
// gate read 0.86-0.94 over three runs while the shard lock was a
// sync.RWMutex, whose waiters park, and 1.30-1.38 over six with the
// polling lock of internal/shard/lock.go; the floor is that less 20 %.
// (The two vCPUs there behave like two threads of one core: a keyset
// that fits the cache scales less than one that does not, 1.4 against
// 1.6-1.7 at 2 M keys whatever the kind.)
const callerScalingFloor = 1.1

// callerScaling measures a sharded-rw ALEX stack with one caller and with
// two, alternating slices through abMedian on the same instance, on the
// mix the repo benchmark's inproc-mixed workload runs on that stack: 80 %
// Get, 8 % Insert, 7 % Delete, 5 % Range of up to 100 records, on keys of
// the preload (so nothing grows; the population settles near half of the
// written keys present). It is the one gate on what the per-shard lock
// costs two callers; with one CPU there is no second core to buy anything
// with, and the table says so instead.
func callerScaling(keys []core.Key, recs []core.KV, cfg Config) (*Table, []floor, error) {
	t := &Table{
		ID:      "CALLERS",
		Title:   fmt.Sprintf("sharded-rw(%d) over alex, 80/8/7/5 get/insert/delete/range(100), n=%d: one caller against two (Mops/s aggregate)", cfg.Shards, cfg.N),
		Columns: []string{"callers", "Mops", "vs one"},
	}
	if runtime.NumCPU() < 2 {
		t.AddRow("skipped", fmt.Sprintf("runtime.NumCPU() = %d: a second caller has no core of its own", runtime.NumCPU()), "-")
		return t, nil, nil
	}
	var slice int64
	two, one, err := abMedian(abRounds, abSlices, func() (side, side, func(), error) {
		s, err := lix.NewStack(recs, lix.StackConfig{Kind: "alex", Shards: cfg.Shards})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("bench: build sharded-rw: %w", err)
		}
		callers := func(n int) side {
			return func() (float64, error) {
				slice++
				return runBenchmarkMix(s, keys, cfg.Q, n, cfg.Seed+1000*slice), nil
			}
		}
		return callers(2), callers(1), func() {}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t.AddRow(1, one, "1.000")
	t.AddRow(2, two, fmt.Sprintf("%.3f", two/one))
	return t, []floor{{name: "serving/callers/2-vs-1", got: two, ref: one, min: callerScalingFloor}}, nil
}

// runBenchmarkMix drives callers goroutines, q operations each, of the
// 80/8/7/5 mix against s and returns aggregate Mops/s.
func runBenchmarkMix(s *lix.Stack, keys []core.Key, q, callers int, seed int64) float64 {
	return drive(callers, q, seed, func(r *rand.Rand, o int) {
		k := keys[r.Intn(len(keys))]
		switch p := r.Intn(100); {
		case p < 80:
			s.Get(k)
		case p < 88:
			s.Insert(k, core.Value(o))
		case p < 95:
			s.Delete(k)
		default:
			left := 100
			s.Range(k, ^core.Key(0), func(core.Key, core.Value) bool {
				left--
				return left > 0
			})
		}
	})
}

// mixedSide is runMixed as an abMedian side. Writes upsert keys of the
// preload, so no instance grows and every slice is the same work.
func mixedSide(keys []core.Key, cfg Config, readPct float64, get func(core.Key) (core.Value, bool), put func(core.Key, core.Value)) side {
	return func() (float64, error) { return runMixed(keys, cfg, readPct, get, put), nil }
}

// runMixed drives cfg.Workers goroutines, cfg.Q operations each, of the
// given read/write mix and returns aggregate Mops/s.
func runMixed(keys []core.Key, cfg Config, readPct float64, get func(core.Key) (core.Value, bool), put func(core.Key, core.Value)) float64 {
	return drive(cfg.Workers, cfg.Q, cfg.Seed, func(r *rand.Rand, o int) {
		k := keys[r.Intn(len(keys))]
		if r.Float64() < readPct {
			get(k)
		} else {
			put(k, core.Value(o))
		}
	})
}

// drive runs op q times on each of workers goroutines, each with a
// generator of its own seeded from seed, and returns aggregate Mops/s.
func drive(workers, q int, seed int64, op func(r *rand.Rand, o int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := newRand(seed + 31*int64(id))
			for o := 0; o < q; o++ {
				op(r, o)
			}
		}(w)
	}
	wg.Wait()
	return float64(q*workers) / float64(time.Since(start).Nanoseconds()) * 1000
}

// gateObs is the observed-vs-bare pair: the 95/5 mix on one keyset against
// two sharded-rw stacks that differ only in StackConfig.Metrics, compared
// by abMedian with cfg.Q operations per worker and side in each round. The
// floor — observed at least 0.85 of bare — gates the per-operation cost of
// the obs wrapper (counters on every call, the clock on one call in
// lix.SampleEvery) the way disabled tracing is gated. The run also checks
// that the wrapper counted every operation exactly.
func gateObs(cfg Config) ([]*Table, []floor, error) {
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	slice := cfg
	slice.Q = (cfg.Q + abSlices - 1) / abSlices

	var observedMetrics []*lix.Metrics
	obsMed, bareMed, err := abMedian(abRounds, abSlices, func() (side, side, func(), error) {
		bare, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("bench: build bare stack: %w", err)
		}
		m := lix.NewMetrics("obs-overhead")
		observed, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards, Metrics: m})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("bench: build observed stack: %w", err)
		}
		observedMetrics = append(observedMetrics, m)
		runtime.GC() // collect the previous round's stacks now, not during a slice
		return mixedSide(keys, slice, 0.95, observed.Get, observed.Insert),
			mixedSide(keys, slice, 0.95, bare.Get, bare.Insert), func() {}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var lookups, inserts, samples uint64
	for _, m := range observedMetrics {
		snap := m.Snapshot()
		lookups += snap.Counters["lookups"]
		inserts += snap.Counters["inserts"]
		samples += snap.Histograms["get_ns"].Count
	}
	if got, want := lookups+inserts, uint64(abRounds*abSlices*slice.Q*slice.Workers); got != want {
		return nil, nil, fmt.Errorf("bench: observed stacks counted %d operations, ran %d", got, want)
	}

	t := &Table{
		ID: "OBS",
		Title: fmt.Sprintf("Obs wrapper overhead: sharded-rw(%d), 95/5, %d workers, n=%d, median of %d rounds (get_ns holds %d samples of %d lookups)",
			cfg.Shards, cfg.Workers, cfg.N, abRounds, samples, lookups),
		Columns: []string{"stack", "Mops", "vs bare"},
	}
	t.AddRow("bare", bareMed, "1.000")
	t.AddRow("observed", obsMed, fmt.Sprintf("%.3f", obsMed/bareMed))
	return []*Table{t}, []floor{{name: "obs/95/5/observed", got: obsMed, ref: bareMed, min: 0.85}}, nil
}
