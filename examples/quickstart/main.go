// Quickstart: build learned one-dimensional indexes over a sorted key set,
// look keys up, and compare their size/latency profile against a B+-tree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	lix "github.com/lix-go/lix"
)

func main() {
	// A sorted key set with a non-uniform distribution (quadratic CDF) —
	// exactly what learned indexes exploit.
	const n = 1 << 20
	recs := make([]lix.KV, n)
	for i := range recs {
		k := lix.Key(i) * lix.Key(i) / 64
		recs[i] = lix.KV{Key: k, Value: lix.Value(i)}
	}
	for i := 1; i < n; i++ { // keep keys strictly increasing
		if recs[i].Key <= recs[i-1].Key {
			recs[i].Key = recs[i-1].Key + 1
		}
	}

	// Build one index from each family, by kind name with its defaults
	// (lix.Static1DKinds lists the names), or with a constructor that
	// takes the kind's parameters.
	rmi, err := lix.Build1D("rmi", recs)
	check(err)
	pgm, err := lix.NewPGM(recs, 64)
	check(err)
	btree, err := lix.Build1D("btree", recs)
	check(err)
	binary, err := lix.Build1D("binary", recs)
	check(err)

	fmt.Println("Index profiles after indexing", n, "records:")
	for _, ix := range []lix.Index{binary, btree, rmi, pgm} {
		st := ix.Stats()
		fmt.Printf("  %-14s index=%7.1f KiB  models=%d\n",
			st.Name, float64(st.IndexBytes)/1024, st.Models)
	}

	// Point lookups.
	fmt.Println("\nLookups:")
	probe := recs[n/3].Key
	for _, ix := range []lix.Index{binary, btree, rmi, pgm} {
		start := time.Now()
		var v lix.Value
		var ok bool
		for i := 0; i < 100000; i++ {
			v, ok = ix.Get(probe)
		}
		fmt.Printf("  %-14s Get(%d) = %d,%v   (%.0f ns/op)\n",
			ix.Stats().Name, probe, v, ok, float64(time.Since(start).Nanoseconds())/100000)
	}

	// Range scan.
	fmt.Println("\nRange scan over the learned index:")
	count := rmi.Range(recs[100].Key, recs[120].Key, func(k lix.Key, v lix.Value) bool {
		return true
	})
	fmt.Printf("  %d records in [%d, %d]\n", count, recs[100].Key, recs[120].Key)

	// Updatable learned index.
	fmt.Println("\nUpdatable learned index (ALEX):")
	alex, err := lix.BuildMutable1D("alex")
	check(err)
	for i := 0; i < 100000; i++ {
		alex.Insert(lix.Key(i*7), lix.Value(i))
	}
	alex.Delete(lix.Key(7))
	v, ok := alex.Get(lix.Key(14))
	fmt.Printf("  after 100k inserts + delete: Get(14) = %d,%v, Len = %d\n", v, ok, alex.Len())

	// The serving stack: one call composes backend → shards → metrics,
	// with a batch of operations dispatched to each layer's native batch
	// path (one shard lock per batch instead of one per record).
	fmt.Println("\nServing stack (lix.NewStack):")
	m := lix.NewMetrics("quickstart")
	s, err := lix.NewStack(recs, lix.StackConfig{Kind: "btree", Shards: 8, Metrics: m})
	check(err)
	defer s.Close()
	ops := make([]lix.Op, 1000)
	for i := range ops {
		ops[i] = lix.Op{Kind: lix.OpGet, Key: recs[i*3].Key}
	}
	// Results land in caller-owned slices (reusable across calls); the
	// last argument is the request's trace span, nil when untraced. A
	// batch may mix OpGet, OpPut and OpDel; writes would need s.Commit.
	vals, hits := make([]lix.Value, len(ops)), make([]bool, len(ops))
	check(s.Apply(ops, vals, hits, nil))
	found := 0
	for _, ok := range hits {
		if ok {
			found++
		}
	}
	span := s.SearchRange(recs[100].Key, recs[200].Key)
	snap := m.Snapshot()
	fmt.Printf("  Apply(%d gets): %d hits; SearchRange: %d records\n",
		len(ops), found, len(span))
	fmt.Printf("  metered: %d lookups in %d batches, %d range scans\n",
		snap.Counters["lookups"], snap.Counters["batches"], snap.Counters["ranges"])
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
