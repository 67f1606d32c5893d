package alex

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

func BenchmarkGet(b *testing.B) {
	keys, _ := dataset.Keys(dataset.Lognormal, 1<<20, 1)
	ix, err := Bulk(dataset.KV(keys))
	if err != nil {
		b.Fatal(err)
	}
	probes := dataset.LookupMix(keys, 1<<16, 0.9, 2)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := ix.Get(probes[i&(1<<16-1)])
		sink += v
	}
	_ = sink
}

// BenchmarkBulk builds a tree over 2 M lognormal keys, the record count
// the repo benchmark's ALEX workloads preload. It reports the leaves'
// slots per key and their mean |slot - prediction| (slotStats).
func BenchmarkBulk(b *testing.B) {
	keys, _ := dataset.Keys(dataset.Lognormal, 2_000_000, 4)
	recs := dataset.KV(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := Bulk(recs)
		if err != nil {
			b.Fatal(err)
		}
		sinkIndex = ix
	}
	b.StopTimer()
	slotsPerKey, meanError := slotStats(sinkIndex)
	b.ReportMetric(slotsPerKey, "slots/key")
	b.ReportMetric(meanError, "slots_off/key")
}

var sinkIndex *Index

func BenchmarkInsert(b *testing.B) {
	keys, _ := dataset.Keys(dataset.Uniform, 1<<18, 3)
	ix := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(keys[i&(1<<18-1)], 1)
	}
}

// points hides Index.Apply from core.Apply, which then runs its point loop.
type points struct{ ix *Index }

func (p points) Get(k core.Key) (core.Value, bool) { return p.ix.Get(k) }
func (p points) Insert(k core.Key, v core.Value)   { p.ix.Insert(k, v) }
func (p points) Delete(k core.Key) bool            { return p.ix.Delete(k) }

// BenchmarkApplyRun compares Apply with the point loop on the runs a shard
// sees: 4 indexes of 500 k keys with lognormal gaps (the wire-read and
// inproc-mixed preload over 4 shards), runs of 1, 2, 3, 8 and 32 ops on
// one index at a time, gets only and a 50/40/10 get/put/delete mix over
// the preloaded keys and as many absent ones between them. ns/op is per
// op.
func BenchmarkApplyRun(b *testing.B) {
	const indexes, perIndex = 4, 500_000
	rng := rand.New(rand.NewSource(21))
	keys := make([]core.Key, 2*indexes*perIndex)
	k := core.Key(1 << 20)
	for i := range keys {
		k += 2 + core.Key(math.Exp(rng.NormFloat64()+4))
		keys[i] = k
	}
	for _, mix := range []string{"get", "mix"} {
		for _, run := range []int{1, 2, 3, 8, 32} {
			for _, path := range []string{"apply", "point"} {
				b.Run(mix+"/run"+strconv.Itoa(run)+"/"+path, func(b *testing.B) {
					pre, ops := dataset.ShardRuns(keys, indexes, mix == "mix", 22)
					ix := make([]*Index, indexes)
					for i := range ix {
						ix[i], _ = Bulk(pre[i])
					}
					vals, oks := make([]core.Value, run), make([]bool, run)
					b.ResetTimer()
					for i, r := 0, 0; i < b.N; i, r = i+run, r+1 {
						t := r % indexes
						o := ops[t][r/indexes*run%(len(ops[t])-run):][:run]
						if path == "apply" {
							ix[t].Apply(o, vals, oks, nil)
						} else {
							core.Apply(points{ix[t]}, o, vals, oks, nil)
						}
					}
				})
			}
		}
	}
}
