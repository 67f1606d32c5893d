package shard

import "github.com/lix-go/lix/internal/core"

// rwShard is one shard: a mutable index behind an rwLock. The lock's
// words and ix are one 64-byte object, so they share the one cache line a
// reader loads anyway (the writer word); only writers write it.
type rwShard struct {
	mu rwLock
	ix MutableIndex
}

// newRWShard builds the shard's backend over part (sorted), through the
// bulk builder when the kind has one. waited is the lock's slow-path
// counter (rwLock.waited).
func newRWShard(part []core.KV, b Builders, waited func(write, blocked bool)) (*rwShard, error) {
	sh := &rwShard{}
	sh.mu.init(waited)
	var err error
	if b.Bulk != nil {
		sh.ix, err = b.Bulk(part)
		return sh, err
	}
	if sh.ix, err = b.New(); err != nil {
		return nil, err
	}
	for _, r := range part {
		sh.ix.Insert(r.Key, r.Value)
	}
	return sh, nil
}

func (sh *rwShard) get(k core.Key) (core.Value, bool) {
	s := sh.mu.rlock()
	v, ok := sh.ix.Get(k)
	sh.mu.runlock(s)
	return v, ok
}

func (sh *rwShard) insert(k core.Key, v core.Value) {
	sh.mu.lock()
	sh.ix.Insert(k, v)
	sh.mu.unlock()
}

func (sh *rwShard) delete(k core.Key) bool {
	sh.mu.lock()
	ok := sh.ix.Delete(k)
	sh.mu.unlock()
	return ok
}

// applyRun does run r of a batch (see run) under one lock hold, in the
// run's order, through core.Apply. A run that is a group of the batch is
// gathered into its stretch of the scratch first and its answers are
// scattered back after.
func (sh *rwShard) applyRun(b *batchOp, r run) {
	ops, vals, oks := b.ops, b.vals, b.oks
	if r.idx != nil {
		for j, i := range r.idx {
			r.ops[j], r.vals[j], r.oks[j] = ops[i], vals[i], oks[i]
		}
		ops, vals, oks = r.ops, r.vals, r.oks
	}
	sh.apply(ops, vals, oks)
	for j, i := range r.idx {
		b.vals[i], b.oks[i] = vals[j], oks[j]
	}
}

// apply hands ops to the backend under a write hold if any of them
// writes, else a read hold.
func (sh *rwShard) apply(ops []core.Op, vals []core.Value, oks []bool) {
	write := false
	for j := 0; j < len(ops) && !write; j++ {
		write = ops[j].Kind != core.OpGet
	}
	if write {
		sh.mu.lock()
		defer sh.mu.unlock()
	} else {
		s := sh.mu.rlock()
		defer sh.mu.runlock(s)
	}
	core.Apply(sh.ix, ops, vals, oks, nil)
}

func (sh *rwShard) rangeScan(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	s := sh.mu.rlock()
	defer sh.mu.runlock(s)
	return sh.ix.Range(lo, hi, fn)
}

func (sh *rwShard) len() int {
	s := sh.mu.rlock()
	n := sh.ix.Len()
	sh.mu.runlock(s)
	return n
}

func (sh *rwShard) stats() core.Stats {
	s := sh.mu.rlock()
	st := sh.ix.Stats()
	sh.mu.runlock(s)
	return st
}

func (sh *rwShard) close() error {
	sh.mu.lock()
	defer sh.mu.unlock()
	return closeIndex(sh.ix)
}
