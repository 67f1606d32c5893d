package btree

import (
	"strconv"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

func BenchmarkGet(b *testing.B) {
	keys, _ := dataset.Keys(dataset.Lognormal, 1<<20, 1)
	t, err := Bulk(DefaultOrder, dataset.KV(keys))
	if err != nil {
		b.Fatal(err)
	}
	probes := dataset.LookupMix(keys, 1<<16, 0.9, 2)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := t.Get(probes[i&(1<<16-1)])
		sink += v
	}
	_ = sink
}

func BenchmarkGetInterpolated(b *testing.B) {
	keys, _ := dataset.Keys(dataset.Uniform, 1<<20, 1)
	t, err := Bulk(DefaultOrder, dataset.KV(keys))
	if err != nil {
		b.Fatal(err)
	}
	t.SetInterpolation(true)
	probes := dataset.LookupMix(keys, 1<<16, 0.9, 2)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := t.Get(probes[i&(1<<16-1)])
		sink += v
	}
	_ = sink
}

func BenchmarkInsert(b *testing.B) {
	keys, _ := dataset.Keys(dataset.Uniform, 1<<18, 3)
	t := NewDefault()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(keys[i&(1<<18-1)], 1)
	}
}

// points hides Tree.Apply from core.Apply, which then runs its point loop.
type points struct{ t *Tree }

func (p points) Get(k core.Key) (core.Value, bool) { return p.t.Get(k) }
func (p points) Insert(k core.Key, v core.Value)   { p.t.Insert(k, v) }
func (p points) Delete(k core.Key) bool            { return p.t.Delete(k) }

// BenchmarkApplyRun compares Apply with the point loop on the runs a shard
// sees: 4 trees of 125 k uniform keys (the wire-durable preload over 4
// shards), runs of 1, 2, 3, 8 and 32 ops on one tree at a time, gets only
// and a 50/40/10 get/put/delete mix over the preloaded keys and as many
// absent ones. ns/op is per op.
func BenchmarkApplyRun(b *testing.B) {
	const trees, perTree = 4, 125_000
	keys, _ := dataset.Keys(dataset.Uniform, 2*trees*perTree, 21)
	for _, mix := range []string{"get", "mix"} {
		for _, run := range []int{1, 2, 3, 8, 32} {
			for _, path := range []string{"apply", "point"} {
				b.Run(mix+"/run"+strconv.Itoa(run)+"/"+path, func(b *testing.B) {
					pre, ops := dataset.ShardRuns(keys, trees, mix == "mix", 22)
					ix := make([]*Tree, trees)
					for i := range ix {
						ix[i], _ = Bulk(DefaultOrder, pre[i])
					}
					vals, oks := make([]core.Value, run), make([]bool, run)
					b.ResetTimer()
					for i, r := 0, 0; i < b.N; i, r = i+run, r+1 {
						t := r % trees
						o := ops[t][r/trees*run%(len(ops[t])-run):][:run]
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
