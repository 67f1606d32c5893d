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
// run's order: a write hold if any of its ops writes, else a read hold. A
// delete reports whether its key was live when its turn came.
func (sh *rwShard) applyRun(b *batchOp, r run) {
	ops, vals, oks := b.ops, b.vals, b.oks
	n, write := r.len(), false
	for j := 0; j < n && !write; j++ {
		write = ops[r.at(j)].Kind != core.OpGet
	}
	if write {
		sh.mu.lock()
		defer sh.mu.unlock()
	} else {
		s := sh.mu.rlock()
		defer sh.mu.runlock(s)
	}
	for j := 0; j < n; j++ {
		i := r.at(j)
		switch op := &ops[i]; op.Kind {
		case core.OpGet:
			vals[i], oks[i] = sh.ix.Get(op.Key)
		case core.OpPut:
			sh.ix.Insert(op.Key, op.Val)
		case core.OpDel:
			oks[i] = sh.ix.Delete(op.Key)
		}
	}
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
