package page

import (
	"fmt"
	"os"
	"sync"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// The two paged kinds, stored in the meta page of their files. They share
// one leaf chain and differ only in their router.
const (
	// KindBTree routes through disk-resident inner pages (innerRouter).
	KindBTree = "paged-btree"
	// KindPGM routes through an in-memory learned fence index
	// (fenceRouter).
	KindPGM = "paged-pgm"
)

// Options configure a paged index: the on-disk page size and the buffer
// pool's frame budget. The zero value selects DefaultPageSize and
// DefaultPoolFrames.
type Options struct {
	// PageSize is the page size in bytes: Size4K or Size8K (0 = default).
	PageSize int
	// PoolFrames is the buffer-pool frame budget (0 = default). It must be
	// at least the tree height plus two — an insert pins the root-to-leaf
	// path plus one freshly split page; NewPool enforces a floor of 4.
	PoolFrames int
}

// Index is a disk-resident index over fixed-size pages. Sorted records
// live in leaf pages chained left to right through their header links;
// a router finds the leaf that owns a key, and that is the only part in
// which the two kinds differ:
//
//   - paged-btree routes through inner pages of separator keys (a B+-tree);
//   - paged-pgm routes through an in-memory fence array (the first key of
//     each leaf) and a PLA model over it, so a point lookup reads at most
//     one page — the property that makes learned indexes attractive on
//     storage (see the package comment).
//
// All page access goes through a buffer pool, so the working set is
// bounded by Options.PoolFrames regardless of data size.
//
// Deletions do not rebalance: leaves may go underfull, and records move
// between pages only on splits. A leaf a deletion empties, though, is
// stitched out of the chain, dropped from the router, and returned to the
// file's free list, so the next allocation reuses the space. This mirrors
// the common practice in disk B+-trees (and keeps the crash surface small:
// no merge writes).
//
// Error handling is fail-stop: the error-returning methods (Lookup,
// InsertErr, DeleteErr, RangeErr) surface I/O and corruption errors; the
// interface methods (Get, Insert, Delete, Range) panic on them. A CRC
// mismatch means the file is damaged — continuing would serve wrong
// answers, which is the one thing a verified page format must never do.
type Index struct {
	mu    sync.RWMutex
	file  *File
	pool  *Pool
	kind  string
	r     router
	count int

	hook          obs.Hook
	removeOnClose bool
}

// router finds the leaf that owns a key. Calls that change it run under
// the index's write lock; leaf may run under the read lock.
type router interface {
	// leaf returns the id of the leaf owning k, 0 when the index is empty.
	leaf(k core.Key) (uint64, error)
	// seek is leaf for a write: it also remembers the route taken, which
	// split, pred and drop then act on.
	seek(k core.Key) (uint64, error)
	// split records that the sought leaf split: its upper half, whose
	// keys are >= sep, moved to the new leaf right, next in the chain.
	split(sep core.Key, right uint64) error
	// pred returns the sought leaf's predecessor in the chain, 0 for the
	// first leaf.
	pred() (uint64, error)
	// drop forgets the sought leaf, which a delete emptied.
	drop() error
	// build routes over a fresh leaf chain, given in key order.
	build(leaves []pageRef) error
	// open restores the router from a reopened file's meta page.
	open(m Meta) error
	// meta returns the root and height the meta page records.
	meta() (root uint64, height int)
	// stats fills in the kind's Height and Models and adds its resident
	// bytes to IndexBytes; pages is the file's page count.
	stats(st *core.Stats, pages int)
	// bounds lists the leaves in key order, each with the key range the
	// router sends to it, checking the router's own structure on the way.
	bounds() ([]leafBounds, error)
}

// pageRef is a page and the lowest key routed to it.
type pageRef struct {
	first core.Key
	id    uint64
}

// leafBounds is a leaf and the keys [lo, hi] its router sends to it.
type leafBounds struct {
	id     uint64
	lo, hi core.Key
}

// newIndex wraps the page file f in an index of kind. It closes f and
// fails when kind names neither paged kind.
func newIndex(f *File, kind string, o Options) (*Index, error) {
	ix := &Index{file: f, pool: NewPool(f, o.PoolFrames), kind: kind}
	switch kind {
	case KindBTree:
		ix.r = &innerRouter{ix: ix}
	case KindPGM:
		ix.r = &fenceRouter{ix: ix}
	default:
		f.Close()
		return nil, fmt.Errorf("page: unknown paged index kind %q", kind)
	}
	return ix, nil
}

// CreateIndex creates a fresh paged index of kind (KindBTree or KindPGM)
// in a file at path.
func CreateIndex(path, kind string, o Options) (*Index, error) {
	f, err := Create(path, o.PageSize, kind)
	if err != nil {
		return nil, err
	}
	ix, err := newIndex(f, kind, o)
	if err != nil {
		os.Remove(path)
	}
	return ix, err
}

// OpenIndex opens an existing paged index file, verifying that it holds
// an index of kind. A paged-pgm rebuilds its fence index by walking the
// leaf chain.
func OpenIndex(path, kind string, o Options) (*Index, error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	m := f.Meta()
	if m.Kind != kind {
		f.Close()
		return nil, fmt.Errorf("page: %s holds a %q index, not %q", path, m.Kind, kind)
	}
	ix, err := newIndex(f, kind, o)
	if err != nil {
		return nil, err
	}
	ix.count = m.Count
	if err := ix.r.open(m); err != nil {
		f.Close()
		return nil, err
	}
	return ix, nil
}

// NewTempIndex creates a paged index of kind backed by a temporary file
// that is removed on Close. It is the in-memory-API compatibility
// constructor used by the registry.
func NewTempIndex(kind string, o Options) (*Index, error) {
	tf, err := os.CreateTemp("", "lix-"+kind+"-*.lpx")
	if err != nil {
		return nil, err
	}
	path := tf.Name()
	tf.Close()
	ix, err := CreateIndex(path, kind, o)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	ix.removeOnClose = true
	return ix, nil
}

// BulkIndex creates a paged index file of kind at path bulk-loaded with
// recs (sorted ascending, distinct keys).
func BulkIndex(path, kind string, recs []core.KV, o Options) (*Index, error) {
	ix, err := CreateIndex(path, kind, o)
	if err != nil {
		return nil, err
	}
	if err := ix.BulkLoad(recs); err != nil {
		ix.Close()
		os.Remove(path)
		return nil, err
	}
	return ix, nil
}

// SetObserver attaches r to receive the index's structural events (leaf
// and inner splits, fence-model retrains) and the buffer pool's page
// traffic (evictions, flushes, hit/miss counts). nil detaches.
func (ix *Index) SetObserver(r obs.Recorder) {
	ix.hook.SetRecorder(r)
	ix.pool.SetObserver(r)
}

// PoolStats returns the buffer pool's traffic counters.
func (ix *Index) PoolStats() PoolStats { return ix.pool.Stats() }

// Path returns the backing file's path.
func (ix *Index) Path() string { return ix.file.Path() }

// Fences returns the fence index a paged-pgm routes by, nil for a
// paged-btree. It is the index's own, not a copy: read it only while no
// write runs.
func (ix *Index) Fences() *Fences {
	if g, ok := ix.r.(*fenceRouter); ok {
		return &g.f
	}
	return nil
}

// stageMeta hands the router's root and height and the record count to
// the file, to be persisted by its next Sync or Close.
func (ix *Index) stageMeta() {
	root, height := ix.r.meta()
	ix.file.SetMeta(Meta{Kind: ix.kind, Root: root, Height: height, Count: ix.count})
}

// Sync flushes all dirty pages, persists the meta page, and fsyncs.
func (ix *Index) Sync() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.pool.FlushAll(); err != nil {
		return err
	}
	ix.stageMeta()
	return ix.file.Sync()
}

// Close flushes, persists the meta page, and closes the file (removing it
// when the index was created by NewTempIndex).
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ferr := ix.pool.FlushAll()
	ix.stageMeta()
	if err := ix.file.Close(); err != nil && ferr == nil {
		ferr = err
	}
	if ix.removeOnClose {
		os.Remove(ix.file.Path())
	}
	return ferr
}

// Len returns the number of records.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.count
}

// Stats reports structural statistics. IndexBytes is the resident memory
// bound: the pool's frame budget, plus a paged-pgm's fence index;
// DataBytes is the on-disk footprint.
func (ix *Index) Stats() core.Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	pages := int(ix.file.NumPages())
	st := core.Stats{
		Name:       ix.kind,
		Count:      ix.count,
		IndexBytes: len(ix.pool.frames) * ix.file.PageSize(),
		DataBytes:  pages * ix.file.PageSize(),
	}
	ix.r.stats(&st, pages)
	return st
}

// Lookup returns the value for k, reporting I/O or corruption errors.
func (ix *Index) Lookup(k core.Key) (core.Value, bool, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, err := ix.r.leaf(k)
	if err != nil || id == 0 {
		return 0, false, err
	}
	fr, err := ix.pool.Get(id)
	if err != nil {
		return 0, false, err
	}
	p := fr.Page()
	i, found := p.LeafSearch(k)
	var v core.Value
	if found {
		v = p.LeafVal(i)
	}
	ix.pool.Unpin(fr, false)
	return v, found, nil
}

// Get returns the value for k. It panics on I/O or corruption errors; use
// Lookup to handle them.
func (ix *Index) Get(k core.Key) (core.Value, bool) {
	v, ok, err := ix.Lookup(k)
	if err != nil {
		panic("page: " + ix.kind + " Get: " + err.Error())
	}
	return v, ok
}

// InsertErr upserts (k, v), reporting I/O or corruption errors.
func (ix *Index) InsertErr(k core.Key, v core.Value) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id, err := ix.r.seek(k)
	if err != nil {
		return err
	}
	if id == 0 {
		fr, err := ix.pool.Alloc(TypeLeaf)
		if err != nil {
			return err
		}
		fr.Page().LeafInsertAt(0, k, v)
		ix.pool.Unpin(fr, true)
		ix.count = 1
		return ix.r.build([]pageRef{{first: k, id: fr.ID()}})
	}
	fr, err := ix.pool.Get(id)
	if err != nil {
		return err
	}
	p := fr.Page()
	i, found := p.LeafSearch(k)
	if found {
		p.SetLeafRecord(i, k, v)
		ix.pool.Unpin(fr, true)
		return nil
	}
	n := p.Count()
	if n < LeafCap(len(p)) {
		p.LeafInsertAt(i, k, v)
		ix.pool.Unpin(fr, true)
		ix.count++
		return nil
	}

	// Split: upper half moves to a new right sibling spliced into the leaf
	// chain; the new record lands on whichever side owns it.
	rfr, err := ix.pool.Alloc(TypeLeaf)
	if err != nil {
		ix.pool.Unpin(fr, false)
		return err
	}
	rp := rfr.Page()
	mid := n / 2
	for j := mid; j < n; j++ {
		rp.SetLeafRecord(j-mid, p.LeafKey(j), p.LeafVal(j))
	}
	rp.SetCount(n - mid)
	rp.SetLink(p.Link())
	p.SetLink(rfr.ID())
	zeroRange(p, HeaderSize+16*mid, HeaderSize+16*n)
	p.SetCount(mid)

	sep := rp.LeafKey(0)
	if k < sep {
		p.LeafInsertAt(i, k, v)
	} else {
		j, _ := rp.LeafSearch(k)
		rp.LeafInsertAt(j, k, v)
	}
	ix.pool.Unpin(fr, true)
	ix.pool.Unpin(rfr, true)
	ix.count++
	ix.hook.Emit(obs.EvNodeSplit, n+1, "leaf")
	return ix.r.split(sep, rfr.ID())
}

// Insert upserts (k, v), panicking on I/O or corruption errors.
func (ix *Index) Insert(k core.Key, v core.Value) {
	if err := ix.InsertErr(k, v); err != nil {
		panic("page: " + ix.kind + " Insert: " + err.Error())
	}
}

// zeroRange zeroes p[lo:hi], restoring the canonical zero padding after
// records move out of a page.
func zeroRange(p Buf, lo, hi int) {
	for i := lo; i < hi; i++ {
		p[i] = 0
	}
}

// DeleteErr removes k, reporting whether it was present and any I/O or
// corruption error. No rebalancing happens (see the type comment), but a
// leaf the deletion empties is stitched out of the leaf chain, dropped
// from the router, and returned to the file's free list.
func (ix *Index) DeleteErr(k core.Key) (bool, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id, err := ix.r.seek(k)
	if err != nil || id == 0 {
		return false, err
	}
	fr, err := ix.pool.Get(id)
	if err != nil {
		return false, err
	}
	p := fr.Page()
	i, found := p.LeafSearch(k)
	if !found {
		ix.pool.Unpin(fr, false)
		return false, nil
	}
	p.LeafDeleteAt(i)
	ix.count--
	if p.Count() > 0 {
		ix.pool.Unpin(fr, true)
		return true, nil
	}
	next := p.Link()
	ix.pool.Unpin(fr, true)

	// Unlink the emptied leaf: its predecessor skips ahead to next.
	prev, err := ix.r.pred()
	if err != nil {
		return true, err
	}
	if prev != 0 {
		pfr, err := ix.pool.Get(prev)
		if err != nil {
			return true, err
		}
		pfr.Page().SetLink(next)
		ix.pool.Unpin(pfr, true)
	}
	if err := ix.r.drop(); err != nil {
		return true, err
	}
	return true, ix.pool.Free(id)
}

// Delete removes k, panicking on I/O or corruption errors.
func (ix *Index) Delete(k core.Key) bool {
	ok, err := ix.DeleteErr(k)
	if err != nil {
		panic("page: " + ix.kind + " Delete: " + err.Error())
	}
	return ok
}

// RangeErr calls fn for every record with lo <= key <= hi in ascending
// order, walking the leaf chain from the leaf owning lo; fn returning
// false stops the scan. It returns the number of records visited.
func (ix *Index) RangeErr(lo, hi core.Key, fn func(core.Key, core.Value) bool) (int, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if lo > hi {
		return 0, nil
	}
	id, err := ix.r.leaf(lo)
	count := 0
	for id != 0 && err == nil {
		var fr *Frame
		if fr, err = ix.pool.Get(id); err != nil {
			break
		}
		p := fr.Page()
		i, _ := p.LeafSearch(lo)
		for ; i < p.Count(); i++ {
			k := p.LeafKey(i)
			if k > hi {
				ix.pool.Unpin(fr, false)
				return count, nil
			}
			count++
			if !fn(k, p.LeafVal(i)) {
				ix.pool.Unpin(fr, false)
				return count, nil
			}
		}
		id = p.Link()
		ix.pool.Unpin(fr, false)
	}
	return count, err
}

// Range calls fn for records in [lo, hi], panicking on I/O or corruption
// errors.
func (ix *Index) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	n, err := ix.RangeErr(lo, hi, fn)
	if err != nil {
		panic("page: " + ix.kind + " Range: " + err.Error())
	}
	return n
}

// BulkLoad packs recs (sorted ascending, distinct keys) into a fresh,
// full leaf chain and builds the router over it. The index must be empty.
func (ix *Index) BulkLoad(recs []core.KV) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if root, _ := ix.r.meta(); root != 0 || ix.count != 0 {
		return fmt.Errorf("page: bulk load into non-empty index")
	}
	if len(recs) == 0 {
		return nil
	}
	cap := LeafCap(ix.file.PageSize())
	leaves := make([]pageRef, 0, (len(recs)+cap-1)/cap)
	var prev *Frame
	for off := 0; off < len(recs); off += cap {
		end := min(off+cap, len(recs))
		fr, err := ix.pool.Alloc(TypeLeaf)
		if err != nil {
			if prev != nil {
				ix.pool.Unpin(prev, true)
			}
			return err
		}
		p := fr.Page()
		for j := off; j < end; j++ {
			p.SetLeafRecord(j-off, recs[j].Key, recs[j].Value)
		}
		p.SetCount(end - off)
		if prev != nil {
			prev.Page().SetLink(fr.ID())
			ix.pool.Unpin(prev, true)
		}
		prev = fr
		leaves = append(leaves, pageRef{first: recs[off].Key, id: fr.ID()})
	}
	ix.pool.Unpin(prev, true)
	ix.count = len(recs)
	return ix.r.build(leaves)
}

// CheckInvariants verifies the index: the router's structure checks out
// (see router.bounds), the on-disk leaf chain visits exactly the leaves
// the router routes to, in the same order, every leaf decodes as a leaf
// whose keys lie in the range its router sends to it, keys ascend across
// the whole chain, and the record count matches.
func (ix *Index) CheckInvariants() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	want, err := ix.r.bounds()
	if err != nil {
		return err
	}
	if len(want) == 0 {
		if ix.count != 0 {
			return fmt.Errorf("%s: empty index with count %d", ix.kind, ix.count)
		}
		return nil
	}
	total, i := 0, 0
	var last core.Key
	for id := want[0].id; id != 0; i++ {
		if i >= len(want) || want[i].id != id {
			return fmt.Errorf("%s: chain page %d is not the router's leaf %d", ix.kind, id, i)
		}
		fr, err := ix.pool.Get(id)
		if err != nil {
			return err
		}
		p := fr.Page()
		err = checkLeaf(p, want[i], total > 0, last)
		if n := p.Count(); n > 0 {
			last = p.LeafKey(n - 1)
			total += n
		}
		id = p.Link()
		ix.pool.Unpin(fr, false)
		if err != nil {
			return fmt.Errorf("%s: %w", ix.kind, err)
		}
	}
	if i != len(want) {
		return fmt.Errorf("%s: the chain ends after %d of the router's %d leaves", ix.kind, i, len(want))
	}
	if total != ix.count {
		return fmt.Errorf("%s: counted %d records, count says %d", ix.kind, total, ix.count)
	}
	return nil
}

// checkLeaf checks that p is a leaf whose keys ascend from above last (when
// haveLast) and lie inside b.
func checkLeaf(p Buf, b leafBounds, haveLast bool, last core.Key) error {
	if p.Type() != TypeLeaf {
		return fmt.Errorf("page %d in the leaf chain has type %d", b.id, p.Type())
	}
	for j := 0; j < p.Count(); j++ {
		k := p.LeafKey(j)
		if haveLast && k <= last {
			return fmt.Errorf("leaf %d: keys not ascending at %d", b.id, j)
		}
		if k < b.lo || k > b.hi {
			return fmt.Errorf("leaf %d: key %d outside [%d, %d]", b.id, k, b.lo, b.hi)
		}
		last, haveLast = k, true
	}
	return nil
}
