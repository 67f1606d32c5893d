package shard

import (
	"sync"

	"github.com/lix-go/lix/internal/core"
)

// rwShard is one LockRW shard: a mutable index behind a sync.RWMutex.
type rwShard struct {
	mu sync.RWMutex
	ix MutableIndex
}

// newRWShard builds the shard's backend over part (sorted), through the
// bulk builder when the kind has one.
func newRWShard(part []core.KV, b Builders) (*rwShard, error) {
	if b.Bulk != nil {
		ix, err := b.Bulk(part)
		return &rwShard{ix: ix}, err
	}
	ix, err := b.New()
	if err != nil {
		return nil, err
	}
	for _, r := range part {
		ix.Insert(r.Key, r.Value)
	}
	return &rwShard{ix: ix}, nil
}

func (sh *rwShard) get(k core.Key) (core.Value, bool) {
	sh.mu.RLock()
	v, ok := sh.ix.Get(k)
	sh.mu.RUnlock()
	return v, ok
}

func (sh *rwShard) insert(k core.Key, v core.Value) {
	sh.mu.Lock()
	sh.ix.Insert(k, v)
	sh.mu.Unlock()
}

func (sh *rwShard) delete(k core.Key) bool {
	sh.mu.Lock()
	ok := sh.ix.Delete(k)
	sh.mu.Unlock()
	return ok
}

func (sh *rwShard) lookupRun(keys []core.Key, r run, vals []core.Value, oks []bool) (hits int) {
	sh.mu.RLock()
	for j, n := 0, r.len(); j < n; j++ {
		i := r.at(j)
		if vals[i], oks[i] = sh.ix.Get(keys[i]); oks[i] {
			hits++
		}
	}
	sh.mu.RUnlock()
	return hits
}

func (sh *rwShard) insertRun(recs []core.KV, r run) {
	sh.mu.Lock()
	for j, n := 0, r.len(); j < n; j++ {
		i := r.at(j)
		sh.ix.Insert(recs[i].Key, recs[i].Value)
	}
	sh.mu.Unlock()
}

func (sh *rwShard) deleteRun(keys []core.Key, r run, oks []bool) {
	sh.mu.Lock()
	for j, n := 0, r.len(); j < n; j++ {
		i := r.at(j)
		oks[i] = sh.ix.Delete(keys[i])
	}
	sh.mu.Unlock()
}

func (sh *rwShard) rangeScan(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.ix.Range(lo, hi, fn)
}

func (sh *rwShard) len() int {
	sh.mu.RLock()
	n := sh.ix.Len()
	sh.mu.RUnlock()
	return n
}

func (sh *rwShard) stats() core.Stats {
	sh.mu.RLock()
	st := sh.ix.Stats()
	sh.mu.RUnlock()
	return st
}

func (sh *rwShard) close() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return closeIndex(sh.ix)
}

// A LockRW shard has no delta and no merge pipeline.
func (sh *rwShard) deltaLen() int                       { return 0 }
func (sh *rwShard) deltaCeiling() int                   { return 0 }
func (sh *rwShard) mergeCounts() (swaps, stalls uint64) { return 0, 0 }
func (sh *rwShard) waitMerges()                         {}
