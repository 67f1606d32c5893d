package sst

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

var (
	mergeSink *FileData
	pageSink  int
)

// BenchmarkMergeData merges 4 runs of 100 k records each, about 10 % of them
// tombstones, drawn from a key space of 1 M so that a key sits in roughly
// one run in ten: the shape of a size-tiered compaction window under
// uniform writes. It reports ns per input record.
func BenchmarkMergeData(b *testing.B) { benchMerge(b, 1_000_000) }

// BenchmarkMergeDataOverlapping is BenchmarkMergeData over a key space of
// 110 k, so that a key sits in about 3.6 of the 4 runs and most entries a
// merge passes are shadowed.
func BenchmarkMergeDataOverlapping(b *testing.B) { benchMerge(b, 110_000) }

func benchMerge(b *testing.B, space int) {
	const runs, perRun = 4, 100_000
	rng := rand.New(rand.NewSource(1))
	datas := make([]*FileData, runs)
	for i := range datas {
		picked := make(map[core.Key]bool, perRun)
		keys := make([]core.Key, 0, perRun)
		for len(keys) < perRun {
			if k := core.Key(rng.Intn(space)); !picked[k] {
				picked[k] = true
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		d := &FileData{Seq: uint64(runs - i)}
		for _, k := range keys {
			if rng.Intn(10) == 0 {
				d.Dead = append(d.Dead, k)
			} else {
				d.Live = append(d.Live, core.KV{Key: k, Value: core.Value(rng.Uint64())})
			}
		}
		datas[i] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeSink = MergeData(datas, true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runs*perRun), "ns/record")
}

// BenchmarkPageFor is the fence search of a run lookup, learned against
// binary, the comparison Bourbon makes per run: one run of 400 k lognormal
// keys (1 600 fences), probed with E18's mix (90 % stored keys, the rest
// between two of them). Both sides search the same trained run's fence
// index: model is page.Fences.Find (segment, clamped prediction, windowed
// search, check), binary is core.LowerBound over the whole fence array.
func BenchmarkPageFor(b *testing.B) {
	keys, err := dataset.Keys(dataset.Lognormal, 400_000, 3)
	if err != nil {
		b.Fatal(err)
	}
	f := &trainedLookup(b, keys).fences
	probes := dataset.LookupMix(keys, 1<<16, 0.9, 4)
	b.Run("model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pageSink += f.Find(probes[i&(len(probes)-1)])
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pageSink += core.LowerBound(f.Keys(), probes[i&(len(probes)-1)])
		}
	})
}
