package shard

import (
	"runtime"
	"sync"

	"github.com/lix-go/lix/internal/core"
)

// A batched call is a sequence of (shard, run) pairs: the driver (batch)
// routes the ops' keys and groups them by shard, and a shard does each run
// under one lock hold (rw.go). The two regimes differ only in whether the
// runs go one after another on the caller or concurrently.

// run is the part of a batch one shard does under one lock hold, as input
// positions in input order — the order sequential semantics (later-wins
// upserts, first-wins deletes) depend on. It is either the whole batch
// (idx nil) or a counting-sort group listing its positions in idx, with
// ops, vals and oks the scratch it is gathered into (len(idx) each).
type run struct {
	idx  []int32
	ops  []core.Op
	vals []core.Value
	oks  []bool
}

// batchOp is one batched call: the caller's slices.
type batchOp struct {
	ops  []core.Op
	vals []core.Value
	oks  []bool
}

// batchParallelMin is the batch size from which the groups of a batch run
// concurrently, one goroutine per shard, on hosts with more than one core.
// It is the smallest size at which fan-out lost on neither dataset of
// BenchmarkBatchRegimes (one caller, gets of scattered keys, 8 shards,
// B+-tree shards, ns/key over five runs, grouped vs fan-out) on a 2-core
// host:
//
//	          100 k records          1 M records
//	 256   143–161 vs 151–178     262–320 vs 234–344
//	 512   145–157 vs 120–126     285–305 vs 201–251
//	1024   140–163 vs 101–110     299–363 vs 176–202
//	2048   144–156 vs  89–103     292–390 vs 168–190
//	4096   138–145 vs  85–88      332–370 vs 154–170
//
// The crossover is between 256 and 512 where lookups hit cache, and at
// 256 where they miss it the two overlap. A constant, not an option: what
// it is weighed against (batch size, GOMAXPROCS) is observed per call.
const batchParallelMin = 512

// batch is the driver behind Apply; the whole call is the span's shard
// stage. It routes every key and groups the input positions by shard with
// a pooled counting sort, keeping input order within each shard — which is
// all sequential semantics need, because equal keys share a shard. A batch
// whose keys all route to one shard (the common case for clustered keys
// under range partitioning) is that shard's one run. Otherwise, below
// batchParallelMin (and on a single core) each touched shard does its run
// in turn on the calling goroutine; from it the runs go concurrently, one
// goroutine per shard.
func (s *Sharded) batch(op *batchOp, sp *core.Span) {
	n := len(op.ops)
	if n == 0 {
		return
	}
	defer sp.End(core.StageShard, sp.Begin())
	sc, _ := s.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = newBatchScratch(s)
	}
	if si := sc.group(s.router, op.ops); si >= 0 {
		s.shards[si].applyRun(op, run{})
	} else if n < s.fanoutMin || runtime.GOMAXPROCS(0) == 1 {
		for si, sh := range s.shards {
			if sc.starts[si] != sc.starts[si+1] {
				sh.applyRun(op, sc.runOf(si))
			}
		}
	} else {
		sc.fanOut(op)
	}
	s.scratch.Put(sc)
}

// batchScratch is the workspace of a batch, pooled on the Sharded so a
// batch allocates nothing in steady state — neither the counting sort, nor
// the gathered runs, nor the goroutine starts. idx[starts[si]:starts[si+1]]
// lists the input positions owned by shard si in input order, and the same
// stretch of ops, vals and oks is where its run is gathered.
type batchScratch struct {
	shardOf []int32
	idx     []int32
	starts  []int32 // len shards+1
	cur     []int32 // len shards
	ops     []core.Op
	vals    []core.Value
	oks     []bool

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
			s.shards[si].applyRun(&sc.op, sc.runOf(si))
		}
	}
	return sc
}

// group routes the key of every op and counting-sorts the input positions
// by shard (prefix sum, then stable placement). When all keys share one
// shard it returns that shard and skips the sort; otherwise -1.
func (sc *batchScratch) group(router Router, ops []core.Op) int {
	n := len(ops)
	if cap(sc.shardOf) < n {
		sc.shardOf = make([]int32, n)
	}
	sc.shardOf = sc.shardOf[:n]
	for si := range sc.cur {
		sc.cur[si] = 0
	}
	first := int32(router.Route(ops[0].Key))
	single := true
	for i := range sc.shardOf {
		si := int32(router.Route(ops[i].Key))
		sc.shardOf[i] = si
		sc.cur[si]++
		single = single && si == first
	}
	if single {
		return int(first)
	}
	if cap(sc.idx) < n {
		sc.idx = make([]int32, n)
		sc.ops, sc.vals, sc.oks = make([]core.Op, n), make([]core.Value, n), make([]bool, n)
	}
	sc.idx = sc.idx[:n]
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
	lo, hi := sc.starts[si], sc.starts[si+1]
	return run{idx: sc.idx[lo:hi], ops: sc.ops[lo:hi], vals: sc.vals[lo:hi], oks: sc.oks[lo:hi]}
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

// Apply does a batch of gets, upserts and deletes in one pass with the
// outcome of doing its ops one by one in input order (core.Applier): the
// caller-supplied vals[i], oks[i] answer a get and oks[i] whether a
// delete's key was present (len(ops) each). Zero allocations in steady
// state, pinned by the allocation regression tier. The error is always nil
// (an in-memory layer cannot fail a write).
func (s *Sharded) Apply(ops []core.Op, vals []core.Value, oks []bool, sp *core.Span) error {
	if len(vals) != len(ops) || len(oks) != len(ops) {
		panic("shard: Apply: vals/oks length must equal len(ops)")
	}
	s.batch(&batchOp{ops: ops, vals: vals, oks: oks}, sp)
	return nil
}
