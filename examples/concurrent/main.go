// Concurrent: the XIndex-style concurrent learned index and the sharded
// serving layer under parallel readers and writers, scaling across
// goroutines, vs a B+-tree behind one RWMutex (paper §6.5: concurrency as
// a first-class concern).
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	lix "github.com/lix-go/lix"
)

const (
	n   = 1 << 20
	ops = 200000
)

func main() {
	recs := make([]lix.KV, n)
	cur := lix.Key(0)
	r := rand.New(rand.NewSource(9))
	for i := range recs {
		cur += lix.Key(r.Intn(100) + 1)
		recs[i] = lix.KV{Key: cur, Value: lix.Value(i)}
	}
	x, err := lix.BulkXIndex(recs, 0, 0)
	if err != nil {
		panic(err)
	}
	// The default stack is one B+-tree, bulk-loaded, with no layer above.
	bt, err := lix.NewStack(recs, lix.StackConfig{})
	if err != nil {
		panic(err)
	}
	var mu sync.RWMutex
	// The sharded layer assembled through the canonical stack constructor.
	srw, err := lix.NewStack(recs, lix.StackConfig{Shards: 8})
	if err != nil {
		panic(err)
	}

	fmt.Printf("95%% reads / 5%% writes, %d ops per goroutine\n\n", ops)
	fmt.Printf("%-16s", "goroutines")
	gs := []int{1, 2, 4, runtime.NumCPU()}
	for _, g := range gs {
		fmt.Printf("  %8d", g)
	}
	fmt.Println()

	fmt.Printf("%-16s", "xindex Mops")
	for _, g := range gs {
		fmt.Printf("  %8.2f", run(g, recs,
			func(k lix.Key) { x.Get(k) },
			func(k lix.Key, v lix.Value) { x.Insert(k, v) }))
	}
	fmt.Println()

	fmt.Printf("%-16s", "sharded-rw Mops")
	for _, g := range gs {
		fmt.Printf("  %8.2f", run(g, recs,
			func(k lix.Key) { srw.Get(k) },
			func(k lix.Key, v lix.Value) { srw.Insert(k, v) }))
	}
	fmt.Println()

	fmt.Printf("%-16s", "btree+lock Mops")
	for _, g := range gs {
		fmt.Printf("  %8.2f", run(g, recs,
			func(k lix.Key) { mu.RLock(); bt.Get(k); mu.RUnlock() },
			func(k lix.Key, v lix.Value) { mu.Lock(); bt.Insert(k, v); mu.Unlock() }))
	}
	fmt.Println()

	// A batch (Apply) groups its keys by shard and takes each shard lock
	// once per batch instead of once per key.
	batch := make([]lix.Op, 1024)
	r = rand.New(rand.NewSource(11))
	for i := range batch {
		batch[i] = lix.Op{Kind: lix.OpGet, Key: recs[r.Intn(len(recs))].Key}
	}
	vals, hits := make([]lix.Value, len(batch)), make([]bool, len(batch))
	start := time.Now()
	if err := srw.Apply(batch, vals, hits, nil); err != nil { // caller-owned results; nil span = untraced
		panic(err)
	}
	fmt.Printf("\nApply: %d gets in %v (%d hits, %d values)\n",
		len(batch), time.Since(start), countTrue(hits), len(vals))

	// Layer-specific stats live on the layer: Stack.Sharded exposes it.
	fmt.Printf("sharded-rw imbalance %.2fx\n", srw.Sharded().Imbalance())
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func run(workers int, recs []lix.KV, get func(lix.Key), put func(lix.Key, lix.Value)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(id+1) * 7919))
			for o := 0; o < ops; o++ {
				k := recs[r.Intn(len(recs))].Key
				if r.Float64() < 0.95 {
					get(k)
				} else {
					put(k, lix.Value(o))
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(ops*workers) / float64(time.Since(start).Nanoseconds()) * 1000
}
