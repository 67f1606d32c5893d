package shard

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

func benchSharded(b *testing.B, readPct int) {
	recs := sortedRecs(100_000, 1)
	s, err := New(recs, Config{Shards: 8}, testBuilders())
	if err != nil {
		b.Fatal(err)
	}
	var ctr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seed := ctr.Add(1) * 0x9e3779b97f4a7c15
		for pb.Next() {
			seed = seed*6364136223846793005 + 1442695040888963407
			k := recs[int(seed>>33)%len(recs)].Key
			if int(seed%100) < readPct {
				s.Get(k)
			} else {
				s.Insert(k, core.Value(seed))
			}
		}
	})
}

func BenchmarkShardedRW95(b *testing.B) { benchSharded(b, 95) }
func BenchmarkShardedRW50(b *testing.B) { benchSharded(b, 50) }

func BenchmarkRouterRoute(b *testing.B) {
	r := UniformRouter(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Route(core.Key(i) * 0x9e3779b97f4a7c15)
	}
}

// BenchmarkLookupApply and BenchmarkLookupLooped are the batch-vs-looped
// comparison the bench regression gate enforces: a gets-only Apply that
// reuses its result buffers, against the per-key Get baseline.
func BenchmarkLookupApply(b *testing.B) {
	recs := sortedRecs(100_000, 1)
	s, err := New(recs, Config{Shards: 8}, testBuilders())
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]core.Op, 256)
	for i := range ops {
		ops[i] = core.Op{Kind: core.OpGet, Key: recs[i*97%len(recs)].Key}
	}
	vals := make([]core.Value, len(ops))
	oks := make([]bool, len(ops))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(ops, vals, oks, nil)
	}
}

func BenchmarkLookupLooped(b *testing.B) {
	recs := sortedRecs(100_000, 1)
	s, err := New(recs, Config{Shards: 8}, testBuilders())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]core.Key, 256)
	for i := range keys {
		keys[i] = recs[i*97%len(recs)].Key
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			s.Get(k)
		}
	}
}

// BenchmarkBatchRegimes is the sweep batchParallelMin is set from: one
// caller's gets-only Apply of scattered keys over 100 k and 1 M records in
// 8 shards, at each size through both regimes (the threshold forced high
// or low). Compare ns/key across the pair at one size; the constant belongs
// at the smallest size from which fan-out loses on neither dataset.
func BenchmarkBatchRegimes(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		recs := sortedRecs(n, 1)
		s, err := New(recs, Config{Shards: 8}, testBuilders())
		if err != nil {
			b.Fatal(err)
		}
		// Pre-drawn keys, walked in order, so that drawing them is not timed.
		pool := make([]core.Op, 1<<18)
		seed := uint64(1)
		for i := range pool {
			seed = seed*6364136223846793005 + 1442695040888963407
			pool[i] = core.Op{Kind: core.OpGet, Key: recs[int(seed>>33)%len(recs)].Key}
		}
		for _, size := range []int{256, 512, 1024, 2048, 4096} {
			vals, oks := make([]core.Value, size), make([]bool, size)
			for _, regime := range []struct {
				name string
				min  int
			}{{"grouped", math.MaxInt}, {"fanout", 1}} {
				b.Run(fmt.Sprintf("n%d/b%d/%s", n, size, regime.name), func(b *testing.B) {
					s.fanoutMin = regime.min
					for i := 0; i < b.N; i++ {
						off := i * size % len(pool)
						s.Apply(pool[off:off+size], vals, oks, nil)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/key")
				})
			}
		}
	}
}
