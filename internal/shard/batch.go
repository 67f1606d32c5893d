package shard

import (
	"runtime"
	"sync"

	"github.com/lix-go/lix/internal/core"
)

// A batched call is a sequence of (shard, run) pairs: the driver (batch)
// routes the keys and cuts them into runs, and a shard does each run under
// one lock hold (rw.go). The four operations share the driver; the two
// regimes differ only in how runs are formed and whether they run
// concurrently.

// run is the part of a batch one shard does under one lock hold, as input
// positions in input order — the order batch semantics (later-wins
// upserts, first-wins deletes) depend on. It is either the stretch
// [a, b) of consecutive same-shard keys (idx nil) or a counting-sort
// group listing its positions in idx.
type run struct {
	a, b int
	idx  []int32
}

func (r run) len() int {
	if r.idx != nil {
		return len(r.idx)
	}
	return r.b - r.a
}

// at returns the j-th input position of the run.
func (r run) at(j int) int {
	if r.idx != nil {
		return int(r.idx[j])
	}
	return r.a + j
}

type opKind uint8

const (
	opLookup opKind = iota
	opInsert
	opDelete
	opApply
)

// batchOp is one batched call: the operation and the caller's slices.
type batchOp struct {
	kind opKind
	keys []core.Key   // lookup, delete
	recs []core.KV    // insert
	ops  []core.Op    // apply
	vals []core.Value // lookup, apply
	oks  []bool       // lookup, delete, apply
}

func (op *batchOp) len() int {
	switch op.kind {
	case opInsert:
		return len(op.recs)
	case opApply:
		return len(op.ops)
	}
	return len(op.keys)
}

func (op *batchOp) key(i int) core.Key {
	switch op.kind {
	case opInsert:
		return op.recs[i].Key
	case opApply:
		return op.ops[i].Key
	}
	return op.keys[i]
}

// exec has shard si do run r of op.
func (s *Sharded) exec(op *batchOp, si int, r run) {
	sh := s.shards[si]
	switch op.kind {
	case opLookup:
		sh.lookupRun(op.keys, r, op.vals, op.oks)
	case opInsert:
		sh.insertRun(op.recs, r)
	case opDelete:
		sh.deleteRun(op.keys, r, op.oks)
	case opApply:
		sh.applyRun(op.ops, r, op.vals, op.oks)
	}
}

// batchParallelMin is the batch size from which runs are formed by
// counting sort and fanned out one goroutine per shard, on hosts with
// more than one core. It is the smallest size at which fan-out lost on
// neither dataset of BenchmarkBatchRegimes (one caller, scattered keys, 8
// shards, B+-tree shards, ns/key over five runs, stretches vs fan-out) on
// a 2-core host:
//
//	          100 k records          1 M records
//	 256   145–158 vs 179–191     470–546 vs 374–425
//	 512   157–175 vs 150–159     441–534 vs 302–321
//	1024   160–175 vs 121–135     431–470 vs 222–274
//	2048   164–208 vs 118–131     401–443 vs 187–221
//	4096   181–200 vs 108–126     403–443 vs 168–178
//
// The crossover is between 256 and 512 where lookups hit cache and below
// 256 where they miss it. A constant, not an option: what it is weighed
// against (batch size, GOMAXPROCS) is observed per call.
const batchParallelMin = 512

// batch is the one driver behind LookupBatch, InsertBatch, DeleteBatch
// and Apply; the whole call is the span's shard stage.
//
// Small batches (and every batch on a single core or a single shard) are
// done in input order on the calling goroutine. A homogeneous one is cut
// into maximal stretches of consecutive same-shard keys: one lock hold per
// batch for clustered keys, never more holds than a loop of point
// operations for scattered ones, no grouping pass and no allocation. A
// mixed one, whose ops alternate between shards far more than a run of
// lookups does, is grouped by shard first, and each touched shard does its
// ops in turn under one hold. Large batches on multi-core hosts are
// grouped by shard with a pooled counting sort and the groups run
// concurrently, one goroutine per shard. Either way input order is kept
// within each shard, which is all sequential semantics need because equal
// keys share a shard.
func (s *Sharded) batch(op *batchOp, sp *core.Span) {
	n := op.len()
	if n == 0 {
		return
	}
	defer sp.End(core.StageShard, sp.Begin())
	small := n < s.fanoutMin || len(s.shards) == 1 || runtime.GOMAXPROCS(0) == 1
	if small && op.kind != opApply {
		a, si := 0, s.router.Route(op.key(0))
		for i := 1; i < n; i++ {
			if sj := s.router.Route(op.key(i)); sj != si {
				s.exec(op, si, run{a: a, b: i})
				a, si = i, sj
			}
		}
		s.exec(op, si, run{a: a, b: n})
		return
	}
	sc, _ := s.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = newBatchScratch(s)
	}
	if si := sc.group(s.router, op); si >= 0 {
		// Every key routed to one shard — the common case for clustered
		// keys under range partitioning: one stretch, no fan-out.
		s.exec(op, si, run{b: n})
	} else if small {
		for si := range s.shards {
			if sc.starts[si] != sc.starts[si+1] {
				s.exec(op, si, sc.runOf(si))
			}
		}
	} else {
		sc.fanOut(op)
	}
	s.scratch.Put(sc)
}

// batchScratch is the workspace of every grouped batch, pooled on the
// Sharded so a large or mixed batch allocates nothing in steady state —
// neither the counting sort nor the goroutine starts.
// idx[starts[si]:starts[si+1]] lists the input positions owned by shard si
// in input order.
type batchScratch struct {
	shardOf []int32
	idx     []int32
	starts  []int32 // len shards+1
	cur     []int32 // len shards

	// op is the call being fanned out, wg its join, and work[si] the
	// goroutine body that does shard si's group of op: built once per
	// scratch so that a go statement does not allocate a closure per call.
	op   batchOp
	wg   sync.WaitGroup
	work []func()
}

func newBatchScratch(s *Sharded) *batchScratch {
	ns := len(s.shards)
	sc := &batchScratch{starts: make([]int32, ns+1), cur: make([]int32, ns), work: make([]func(), ns)}
	for si := range sc.work {
		sc.work[si] = func() {
			defer sc.wg.Done()
			s.exec(&sc.op, si, sc.runOf(si))
		}
	}
	return sc
}

// group routes every key of op and counting-sorts the input positions by
// shard (prefix sum, then stable placement). When all keys share one
// shard it returns that shard and skips the sort; otherwise -1.
func (sc *batchScratch) group(router Router, op *batchOp) int {
	n := op.len()
	if cap(sc.shardOf) < n {
		sc.shardOf = make([]int32, n)
		sc.idx = make([]int32, n)
	}
	sc.shardOf, sc.idx = sc.shardOf[:n], sc.idx[:n]
	for si := range sc.cur {
		sc.cur[si] = 0
	}
	first := int32(router.Route(op.key(0)))
	single := true
	for i := range sc.shardOf {
		si := int32(router.Route(op.key(i)))
		sc.shardOf[i] = si
		sc.cur[si]++
		single = single && si == first
	}
	if single {
		return int(first)
	}
	off := int32(0)
	for si, c := range sc.cur {
		sc.starts[si], sc.cur[si] = off, off
		off += c
	}
	sc.starts[len(sc.cur)] = off
	for i, si := range sc.shardOf {
		sc.idx[sc.cur[si]] = int32(i)
		sc.cur[si]++
	}
	return -1
}

// runOf is shard si's group, once group has sorted a batch that spans
// shards.
func (sc *batchScratch) runOf(si int) run {
	return run{idx: sc.idx[sc.starts[si]:sc.starts[si+1]]}
}

// fanOut runs the groups of op concurrently, one goroutine per shard that
// has one, and waits for them: the only place batch goroutines start.
func (sc *batchScratch) fanOut(op *batchOp) {
	sc.op = *op
	for si, work := range sc.work {
		if sc.starts[si] != sc.starts[si+1] {
			sc.wg.Add(1)
			go work()
		}
	}
	sc.wg.Wait()
	sc.op = batchOp{} // do not keep the caller's slices alive from the pool
}

// LookupBatch resolves keys in one pass, writing answers into the
// caller-supplied vals and oks slices (len(keys) each; vals[i], oks[i]
// answer keys[i]): zero allocations in steady state, pinned by the
// allocation regression tier.
func (s *Sharded) LookupBatch(keys []core.Key, vals []core.Value, oks []bool, sp *core.Span) {
	if len(vals) != len(keys) || len(oks) != len(keys) {
		panic("shard: LookupBatch: vals/oks length must equal len(keys)")
	}
	s.batch(&batchOp{kind: opLookup, keys: keys, vals: vals, oks: oks}, sp)
}

// InsertBatch upserts recs in one pass with sequential later-wins
// semantics: records apply in input order within a shard, so the last of
// several records for one key is the one that stays. The error is always
// nil (an in-memory layer cannot fail a write).
func (s *Sharded) InsertBatch(recs []core.KV, sp *core.Span) error {
	s.batch(&batchOp{kind: opInsert, recs: recs}, sp)
	return nil
}

// DeleteBatch removes keys in one pass, overwriting the caller-supplied
// oks (len(keys)): oks[i] reports whether keys[i] was present, with
// sequential semantics: within one batch, the first occurrence of a
// duplicated key reports its liveness and later occurrences report
// false — exactly what a sequential Delete loop would observe. The error
// is always nil.
func (s *Sharded) DeleteBatch(keys []core.Key, oks []bool, sp *core.Span) error {
	if len(oks) != len(keys) {
		panic("shard: DeleteBatch: oks length must equal len(keys)")
	}
	s.batch(&batchOp{kind: opDelete, keys: keys, oks: oks}, sp)
	return nil
}

// Apply does a mixed batch in one pass with the outcome of doing its ops
// one by one in input order (core.Applier; vals and oks are len(ops)
// each). The error is always nil.
func (s *Sharded) Apply(ops []core.Op, vals []core.Value, oks []bool, sp *core.Span) error {
	if len(vals) != len(ops) || len(oks) != len(ops) {
		panic("shard: Apply: vals/oks length must equal len(ops)")
	}
	s.batch(&batchOp{kind: opApply, ops: ops, vals: vals, oks: oks}, sp)
	return nil
}
