// Top-level benchmarks: one testing.B benchmark per experiment in
// DESIGN.md's E4–E19 suite (E1–E3 are the taxonomy figure regenerations,
// exercised in internal/taxonomy; E18's fence search is internal/sst's
// BenchmarkPageFor). The lixbench CLI runs the same
// experiments at larger scale and prints the tables in EXPERIMENTS.md.
package lix_test

import (
	"fmt"
	"sync"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/dataset"
)

const (
	benchN        = 200000
	benchSpatialN = 100000
)

var (
	benchOnce  sync.Once
	benchKeys  []lix.Key
	benchRecs  []lix.KV
	benchProbe []lix.Key
	benchPts   []lix.Point
	benchPVs   []lix.PV
	benchRects []lix.Rect
	benchKNNQ  []lix.Point
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchKeys, err = dataset.Keys(dataset.Lognormal, benchN, 7)
		if err != nil {
			panic(err)
		}
		benchRecs = dataset.KV(benchKeys)
		benchProbe = dataset.LookupMix(benchKeys, 1<<16, 0.9, 8)
		benchPts, err = dataset.Points(dataset.SOSMLike, benchSpatialN, 2, 9)
		if err != nil {
			panic(err)
		}
		benchPVs = dataset.PV(benchPts)
		benchRects = dataset.RectQueries(benchPts, 1024, 1e-3, 10)
		benchKNNQ = dataset.KNNQueries(benchPts, 1024, 11)
	})
}

// BenchmarkE4Lookup1D — 1-D point lookups, learned vs traditional.
func BenchmarkE4Lookup1D(b *testing.B) {
	benchSetup(b)
	for _, kind := range lix.Static1DKinds() {
		ix, err := lix.Build1D(kind, benchRecs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			var sink lix.Value
			for i := 0; i < b.N; i++ {
				v, _ := ix.Get(benchProbe[i&(1<<16-1)])
				sink += v
			}
			_ = sink
		})
	}
}

// BenchmarkE5Build1D — construction cost.
func BenchmarkE5Build1D(b *testing.B) {
	benchSetup(b)
	for _, kind := range lix.Static1DKinds() {
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lix.Build1D(kind, benchRecs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Insert1D — random-order inserts into updatable indexes.
func BenchmarkE6Insert1D(b *testing.B) {
	benchSetup(b)
	for _, kind := range lix.Mutable1DKinds() {
		b.Run(kind, func(b *testing.B) {
			ix, err := lix.BuildMutable1D(kind)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := benchKeys[(i*2654435761)%len(benchKeys)]
				ix.Insert(k, lix.Value(i))
			}
		})
	}
}

// BenchmarkE7Range1D — range scans at ~1e-4 selectivity.
func BenchmarkE7Range1D(b *testing.B) {
	benchSetup(b)
	ranges := dataset.Ranges(benchKeys, 1024, 1e-4, 12)
	for _, kind := range lix.Static1DKinds() {
		ix, err := lix.Build1D(kind, benchRecs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				q := ranges[i&1023]
				sink += ix.Range(q.Lo, q.Hi, func(lix.Key, lix.Value) bool { return true })
			}
			_ = sink
		})
	}
}

// BenchmarkE8PGMEpsilon — the ε size/latency tradeoff.
func BenchmarkE8PGMEpsilon(b *testing.B) {
	benchSetup(b)
	for _, eps := range []int{8, 32, 128, 512} {
		ix, err := lix.NewPGM(benchRecs, eps)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("eps=%d", eps), func(b *testing.B) {
			b.ReportMetric(float64(ix.Stats().IndexBytes), "index-bytes")
			var sink lix.Value
			for i := 0; i < b.N; i++ {
				v, _ := ix.Get(benchProbe[i&(1<<16-1)])
				sink += v
			}
			_ = sink
		})
	}
}

// BenchmarkE9LBF — membership filter probes.
func BenchmarkE9LBF(b *testing.B) {
	benchSetup(b)
	negs, _ := dataset.Keys(dataset.Uniform, benchN, 13)
	bits := uint64(10 * len(benchKeys))
	std := lix.NewBloomFilterBits(bits, len(benchKeys))
	for _, k := range benchKeys {
		std.Add(k)
	}
	learned, err := lix.TrainLearnedBF(benchKeys, negs, bits)
	if err != nil {
		b.Fatal(err)
	}
	filters := map[string]lix.MembershipFilter{"bloom": std, "learned": learned}
	for _, name := range []string{"bloom", "learned"} {
		f := filters[name]
		b.Run(name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				if f.Contains(negs[i%len(negs)]) {
					sink++
				}
			}
			_ = sink
		})
	}
}

// BenchmarkE10PointMD — multi-dimensional exact-point queries.
func BenchmarkE10PointMD(b *testing.B) {
	benchSetup(b)
	for _, kind := range lix.SpatialKinds() {
		ix, err := lix.BuildSpatial(kind, benchPVs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				if _, ok := ix.Lookup(benchPVs[(i*40503)%len(benchPVs)].Point); ok {
					sink++
				}
			}
			_ = sink
		})
	}
}

// BenchmarkE11RangeMD — multi-dimensional range queries (~1e-3).
func BenchmarkE11RangeMD(b *testing.B) {
	benchSetup(b)
	for _, kind := range lix.SpatialKinds() {
		ix, err := lix.BuildSpatial(kind, benchPVs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				v, _ := ix.Search(benchRects[i&1023], func(lix.PV) bool { return true })
				sink += v
			}
			_ = sink
		})
	}
}

// BenchmarkE12KNN — k-nearest-neighbor queries.
func BenchmarkE12KNN(b *testing.B) {
	benchSetup(b)
	for _, kind := range []string{"rtree", "kdtree", "zm", "mlindex", "lisa"} {
		ixAny, err := lix.BuildSpatial(kind, benchPVs)
		if err != nil {
			b.Fatal(err)
		}
		ix := ixAny.(lix.KNNIndex)
		for _, k := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%s/k=%d", kind, k), func(b *testing.B) {
				var sink int
				for i := 0; i < b.N; i++ {
					sink += len(ix.KNN(benchKNNQ[i&1023], k))
				}
				_ = sink
			})
		}
	}
}

// BenchmarkE13InsertMD — multi-dimensional inserts.
func BenchmarkE13InsertMD(b *testing.B) {
	benchSetup(b)
	extra, _ := dataset.Points(dataset.SOSMLike, 1<<16, 2, 14)
	for _, kind := range []string{"rtree", "quadtree", "grid", "lisa"} {
		b.Run(kind, func(b *testing.B) {
			ixAny, err := lix.BuildSpatial(kind, benchPVs)
			if err != nil {
				b.Fatal(err)
			}
			ix := ixAny.(lix.MutableSpatialIndex)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Insert(extra[i&(1<<16-1)], lix.Value(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14Concurrent — parallel mixed workload on the concurrent index.
func BenchmarkE14Concurrent(b *testing.B) {
	benchSetup(b)
	x, err := lix.BulkXIndex(benchRecs, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("xindex-95read", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := benchKeys[(i*2654435761)%len(benchKeys)]
				if i%20 == 0 {
					x.Insert(k, lix.Value(i))
				} else {
					x.Get(k)
				}
				i++
			}
		})
	})
	bt, err := lix.BulkBTree(0, benchRecs)
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.RWMutex
	b.Run("btree-rwmutex-95read", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := benchKeys[(i*2654435761)%len(benchKeys)]
				if i%20 == 0 {
					mu.Lock()
					bt.Insert(k, lix.Value(i))
					mu.Unlock()
				} else {
					mu.RLock()
					bt.Get(k)
					mu.RUnlock()
				}
				i++
			}
		})
	})
}

// BenchmarkE15Adversarial — lookups on the adversarial distribution.
func BenchmarkE15Adversarial(b *testing.B) {
	keys, err := dataset.Keys(dataset.Adversarial, benchN, 15)
	if err != nil {
		b.Fatal(err)
	}
	recs := dataset.KV(keys)
	probes := dataset.LookupMix(keys, 1<<16, 1.0, 16)
	for _, kind := range []string{"pgm", "rmi", "btree"} {
		ix, err := lix.Build1D(kind, recs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			var sink lix.Value
			for i := 0; i < b.N; i++ {
				v, _ := ix.Get(probes[i&(1<<16-1)])
				sink += v
			}
			_ = sink
		})
	}
}

// BenchmarkE16Layout — Flood tuned vs fixed layout on correlated data.
func BenchmarkE16Layout(b *testing.B) {
	pts, err := dataset.Points(dataset.SDiagonal, benchSpatialN, 2, 17)
	if err != nil {
		b.Fatal(err)
	}
	pvs := dataset.PV(pts)
	train := dataset.RectQueries(pts, 100, 1e-3, 18)
	test := dataset.RectQueries(pts, 1024, 1e-3, 19)
	tuned, err := lix.NewFlood(pvs, lix.FloodConfig{Queries: train})
	if err != nil {
		b.Fatal(err)
	}
	fixed, err := lix.NewFlood(pvs, lix.FloodConfig{SortDim: 1, Cols: []int{64, 1}})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []struct {
		name string
		ix   lix.SpatialIndex
	}{{"flood-tuned", tuned}, {"flood-fixed", fixed}} {
		b.Run(e.name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				v, _ := e.ix.Search(test[i&1023], func(lix.PV) bool { return true })
				sink += v
			}
			_ = sink
		})
	}
}

// BenchmarkE17SFCRanges — rectangle decomposition cost, Z vs Hilbert.
func BenchmarkE17SFCRanges(b *testing.B) {
	benchSetup(b)
	for _, curve := range []lix.ZMConfig{{}, {Curve: lix.CurveHilbert}} {
		name := "z"
		if curve.Curve == lix.CurveHilbert {
			name = "hilbert"
		}
		ix, err := lix.NewZMIndex(benchPVs, curve)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				v, _ := ix.Search(benchRects[i&1023], func(lix.PV) bool { return true })
				sink += v
			}
			_ = sink
		})
	}
}

// BenchmarkE19DimSweep — range query cost vs dimensionality.
func BenchmarkE19DimSweep(b *testing.B) {
	for _, d := range []int{2, 3, 4} {
		pts, err := dataset.Points(dataset.SUniform, 1<<16, d, 20)
		if err != nil {
			b.Fatal(err)
		}
		pvs := dataset.PV(pts)
		queries := dataset.RectQueries(pts, 256, 1e-3, 21)
		for _, kind := range []string{"rtree", "flood", "zm"} {
			ix, err := lix.BuildSpatial(kind, pvs)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/d=%d", kind, d), func(b *testing.B) {
				var sink int
				for i := 0; i < b.N; i++ {
					v, _ := ix.Search(queries[i&255], func(lix.PV) bool { return true })
					sink += v
				}
				_ = sink
			})
		}
	}
}
