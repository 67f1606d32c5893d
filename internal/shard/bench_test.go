package shard

import (
	"sync/atomic"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

func benchSharded(b *testing.B, mode LockMode, readPct int) {
	recs := sortedRecs(100_000, 1)
	s, err := New(recs, Config{Shards: 8, Mode: mode, DeltaCap: 4096}, testBuilders())
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

func BenchmarkShardedRW95(b *testing.B)  { benchSharded(b, LockRW, 95) }
func BenchmarkShardedRCU95(b *testing.B) { benchSharded(b, LockRCU, 95) }
func BenchmarkShardedRW50(b *testing.B)  { benchSharded(b, LockRW, 50) }
func BenchmarkShardedRCU50(b *testing.B) { benchSharded(b, LockRCU, 50) }

func BenchmarkRouterRoute(b *testing.B) {
	r := UniformRouter(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Route(core.Key(i) * 0x9e3779b97f4a7c15)
	}
}

// BenchmarkLookupBatch and BenchmarkLookupLooped are the batch-vs-looped
// comparison the bench regression gate enforces: the batch reuses its
// result buffers, looped is the per-key Get baseline.
func BenchmarkLookupBatch(b *testing.B) {
	recs := sortedRecs(100_000, 1)
	s, err := New(recs, Config{Shards: 8}, testBuilders())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]core.Key, 256)
	for i := range keys {
		keys[i] = recs[i*97%len(recs)].Key
	}
	vals := make([]core.Value, len(keys))
	oks := make([]bool, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LookupBatch(keys, vals, oks, nil)
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
