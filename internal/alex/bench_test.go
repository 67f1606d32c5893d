package alex

import (
	"testing"

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
// the repo benchmark's ALEX workloads preload.
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
