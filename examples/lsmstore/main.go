// LSM store: the durable store as a BOURBON-style learned LSM-tree. Writes
// go through a log into memory and checkpoints cut immutable run files;
// each run keeps a fence key per data page, a PLA model over the fences and
// a learned filter in memory — the models that stand in for a traditional
// LSM's per-run block indexes — while its data pages stay on disk.
//
//	go run ./examples/lsmstore
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	lix "github.com/lix-go/lix"
)

func main() {
	dir, err := os.MkdirTemp("", "lsmstore-*")
	must(err)
	defer os.RemoveAll(dir)
	// A demo need not wait on fsync; checkpoints come where the loop asks.
	db, err := lix.Open(dir, lix.DurableOptions{Fsync: lix.FsyncNever, CheckpointEvery: -1})
	must(err)
	defer db.Close()

	// Write a timestamp-like workload: mostly increasing keys with updates,
	// a checkpoint every 100k, then delete the oldest 1k.
	const n = 300000
	r := rand.New(rand.NewSource(1))
	start := time.Now()
	cur := lix.Key(1 << 30)
	keys := make([]lix.Key, 0, n)
	for i := 0; i < n; i++ {
		cur += lix.Key(r.Intn(1000) + 1)
		keys = append(keys, cur)
		must(db.Put(cur, lix.Value(i)))
		if i%10 == 3 { // occasional update of a recent key
			must(db.Put(keys[r.Intn(len(keys))], lix.Value(i)))
		}
		if i%100000 == 99999 {
			must(db.Checkpoint())
		}
	}
	for _, k := range keys[:1000] {
		_, err := db.Del(k)
		must(err)
	}
	must(db.Checkpoint()) // the deletes' tombstones become the newest run
	fmt.Printf("loaded %d records and deleted 1k in %v: %d live in %d runs\n",
		n, time.Since(start).Round(time.Millisecond), db.Len(), len(db.Runs()))

	// Point reads through the run files alone, newest run first: key range,
	// learned filter, fence model, one page read. A run's first read trains
	// its models.
	tiers := db.Tiers()
	start = time.Now()
	hits := 0
	for i := 0; i < 100000; i++ {
		_, ok, err := tiers.Get(keys[r.Intn(len(keys))])
		must(err)
		if ok {
			hits++
		}
	}
	c := tiers.Counters()
	fmt.Printf("100k random gets through the runs: %v (%d hits, %.2f page reads per get, filters skipped %d of %d run probes)\n",
		time.Since(start).Round(time.Millisecond), hits, float64(c.PageReads)/100000, c.FilterSkips, c.Probes-c.RangeSkips)

	count := db.Range(keys[0], keys[5000], func(lix.Key, lix.Value) bool { return true })
	fmt.Printf("range over the first 5k keys after 1k deletes: %d live records\n", count)

	fmt.Println("\nruns, newest first (the models replace the block indexes a traditional LSM keeps per run):")
	for _, run := range db.Runs() {
		st := run.Stats()
		fmt.Printf("  %7d live %5d dead: %5d fences, %2d PLA segments, %8d filter bits\n",
			st.Live, st.Dead, st.Fences, st.Segments, st.FilterBits)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
