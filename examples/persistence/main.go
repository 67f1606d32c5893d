// Persistence: the durable storage layer. Every mutation is written
// ahead to a segmented log before the in-memory learned index applies
// it; a checkpoint rotates the log and flushes the old one into a sorted
// run; a crash (here: closing without flushing) loses nothing synced.
//
// The example writes through a checkpoint, keeps writing, "crashes",
// reopens the directory, and verifies the recovered index holds exactly
// the committed records.
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"os"

	lix "github.com/lix-go/lix"
)

func main() {
	dir, err := os.MkdirTemp("", "lix-persistence-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if err := run(dir); err != nil {
		panic(err)
	}
}

func run(dir string) error {
	// Seed a sharded durable index. FsyncAlways means every Put returns
	// only after its log entry is on disk (group commit shares fsyncs
	// between concurrent writers), so a crash can lose nothing.
	seed := make([]lix.KV, 1000)
	for i := range seed {
		seed[i] = lix.KV{Key: lix.Key(i * 10), Value: lix.Value(i)}
	}
	st, err := lix.NewStack(seed, lix.StackConfig{
		Dir:    dir,
		Shards: 4,
		Fsync:  lix.FsyncAlways,
	})
	if err != nil {
		return err
	}
	d := st.Durable()

	expect := make(map[lix.Key]lix.Value, len(seed)+200)
	for _, r := range seed {
		expect[r.Key] = r.Value
	}

	// First wave of writes, then a checkpoint: the seed run and a new
	// 100-record run now hold everything so far and the logs restart empty.
	for i := 0; i < 100; i++ {
		k, v := lix.Key(1_000_000+i), lix.Value(i)
		if err := d.Put(k, v); err != nil {
			return err
		}
		expect[k] = v
	}
	if err := d.Checkpoint(); err != nil {
		return err
	}
	fmt.Printf("checkpointed at generation %d\n", d.Gen())

	// Second wave lands only in the write-ahead log — no checkpoint will
	// cover it before the crash. A delete rides along.
	for i := 0; i < 100; i++ {
		k, v := lix.Key(2_000_000+i), lix.Value(i)
		if err := d.Put(k, v); err != nil {
			return err
		}
		expect[k] = v
	}
	if _, err := d.Del(lix.Key(0)); err != nil {
		return err
	}
	delete(expect, lix.Key(0))

	// Crash: drop the process state without flushing or checkpointing.
	// Only what already reached disk survives — under FsyncAlways, that
	// is every acknowledged write.
	if err := d.Crash(); err != nil {
		return err
	}
	fmt.Println("crashed without a checkpoint")

	// Reopen with nothing but the directory: the kind and shard count are
	// read back from the manifest, the log suffix merges over the runs it
	// lists, and the torn or unsynced tail (none here) would be truncated,
	// not fatal.
	r, err := lix.NewStack(nil, lix.StackConfig{Dir: dir})
	if err != nil {
		return err
	}
	defer r.Close()
	info := r.Durable().RecoveryInfo()
	fmt.Printf("recovered: manifest gen %d (%d records in %d runs) + %d log records in %v\n",
		info.SnapshotGen, info.SnapshotRecs, info.Runs, info.WALRecs, info.Elapsed)

	if r.Len() != len(expect) {
		return fmt.Errorf("recovered %d records, want %d", r.Len(), len(expect))
	}
	for k, v := range expect {
		got, ok := r.Get(k)
		if !ok || got != v {
			return fmt.Errorf("key %d: got (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
	if _, ok := r.Get(lix.Key(0)); ok {
		return fmt.Errorf("deleted key 0 came back after recovery")
	}
	fmt.Printf("verified all %d records survived the crash\n", len(expect))
	return nil
}
