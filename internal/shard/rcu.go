package shard

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// The RCU shard keeps three atomically-published immutable layers, read
// in precedence order:
//
//	active delta  →  frozen delta  →  snapshot
//
// A delta is two-level: an immutable sorted run plus a small fixed-size
// append tail whose published length is an atomic. The writer appends
// tail entries in place — write the record, then store the new length —
// so a single insert costs one slot write instead of the
// copy-the-whole-delta-per-publish scheme this replaced (which collapsed
// the 50/50 mixed workload to ~139k ops/s). When the tail fills, the
// writer folds sorted+tail into a fresh sorted run (amortized ~tailCap
// records copied per fold) and publishes a new active delta.
//
// Merges into the snapshot are paced, not per-publish: once the active
// sorted run reaches cap, the writer freezes the active delta (frozen
// must be empty), installs a fresh active, and a background goroutine
// rebuilds the snapshot from snapshot+frozen outside all locks. While
// the merge runs the writer keeps appending to the new active; if the
// active sorted run outgrows bound (default 4×cap) before the merge
// lands, writers block on mergeCond — that is the delta-bound
// backpressure the conform stress tier pins.
//
// Load-order invariant: readers load active FIRST, then frozen, then the
// snapshot, while writers publish in the opposite order (freeze stores
// frozen before emptying active; merge completion stores the new
// snapshot before emptying frozen). With Go's sequentially-consistent
// atomics a reader that observes an emptied layer therefore always
// observes the layer below it already updated; a reader that pairs a
// stale upper layer with a new lower layer only re-observes records the
// fold/merge already applied, which the precedence rule absorbs.
//
// Readers never lock and hold nothing: they load the pointers and read.
// What keeps a superseded layer valid under a reader that still holds it
// is the garbage collector: a published snapshot array, sorted run or
// tail is never written again (beyond tail slots above the published
// length) and never handed to a pool, so there is no reclamation protocol
// and no bound on how many readers, or how long-parked a scan, a shard
// tolerates. Only scratch that is never published is pooled (drecPool).

// snapshot is the immutable read side of one LockRCU shard: the sorted
// records and a read-optimized index built over them. The initial
// snapshot borrows the caller's bulk-build slice.
type snapshot struct {
	recs []core.KV
	ix   Index
}

// deltaRec is one delta entry; del marks a tombstone.
type deltaRec struct {
	key core.Key
	val core.Value
	del bool
}

// rcuShard is one LockRCU shard. Readers load active → frozen → snap
// (all atomic, lock-free); writers serialize on mu and append into the
// active delta's tail; background merges fold frozen into a new snapshot.
type rcuShard struct {
	snap   atomic.Pointer[snapshot]
	active atomic.Pointer[delta]
	frozen atomic.Pointer[delta]
	size   atomic.Int64

	mu        sync.Mutex
	mergeCond *sync.Cond // signaled when a background merge finishes
	merging   bool

	cap    int // sorted-delta size that schedules a background merge
	bound  int // sorted-delta size at which writers block (backpressure)
	build  func(recs []core.KV) (Index, error)
	swaps  atomic.Uint64
	stalls atomic.Uint64 // writer backpressure waits, for tests/stats
	parent *Sharded      // swap events go to its hook and metrics
	id     int
}

// newRCUShard builds shard id of parent over part (sorted).
func newRCUShard(part []core.KV, cfg Config, build func([]core.KV) (Index, error), parent *Sharded, id int) (*rcuShard, error) {
	ix, err := build(part)
	if err != nil {
		return nil, err
	}
	sh := &rcuShard{cap: cfg.DeltaCap, bound: cfg.DeltaBound, build: build, parent: parent, id: id}
	sh.mergeCond = sync.NewCond(&sh.mu)
	sh.snap.Store(&snapshot{recs: part, ix: ix})
	sh.active.Store(&delta{tail: make([]deltaRec, tailCap(cfg.DeltaCap))})
	sh.frozen.Store(&emptyDelta)
	sh.size.Store(int64(len(part)))
	return sh, nil
}

// tailCap sizes the delta append tail: half the merge trigger, clamped
// to [8, 128] so point reads scan a bounded tail and folds amortize over
// enough appends.
func tailCap(deltaCap int) int {
	t := deltaCap / 2
	if t < 8 {
		t = 8
	}
	if t > 128 {
		t = 128
	}
	return t
}

// drecPool recycles []deltaRec scratch that is never published: compacted
// tail patches and the merge overlay.
var drecPool sync.Pool

// getDrec returns a pooled deltaRec buffer (length 0) with capacity ≥ n.
func getDrec(n int) *[]deltaRec {
	if p, _ := drecPool.Get().(*[]deltaRec); p != nil && cap(*p) >= n {
		*p = (*p)[:0]
		return p
	}
	b := make([]deltaRec, 0, n)
	return &b
}

// putDrec returns p to the pool, holding buf (p's buffer, possibly grown).
func putDrec(p *[]deltaRec, buf []deltaRec) {
	*p = buf
	drecPool.Put(p)
}

// delta is one published overlay level: an immutable sorted run
// (distinct keys, tombstones marked) plus an append tail. tail entries
// [0, tailLen) are immutable once published; later entries are owned by
// the writer. Within the tail, later entries win; the whole tail wins
// over sorted.
type delta struct {
	sorted  []deltaRec
	tail    []deltaRec
	tailLen atomic.Int64
}

// emptyDelta is the shared always-empty delta all frozen pointers rest
// at between merges. Never mutated.
var emptyDelta delta

func (d *delta) empty() bool {
	return len(d.sorted) == 0 && d.tailLen.Load() == 0
}

// lookup probes one delta level for k. found reports whether the level
// holds an entry for k at all; del marks it a tombstone.
func (d *delta) lookup(k core.Key) (v core.Value, del, found bool) {
	n := int(d.tailLen.Load())
	for i := n - 1; i >= 0; i-- { // newest tail entry wins
		if d.tail[i].key == k {
			return d.tail[i].val, d.tail[i].del, true
		}
	}
	if i, ok := deltaFind(d.sorted, k); ok {
		return d.sorted[i].val, d.sorted[i].del, true
	}
	return 0, false, false
}

// overlay returns the live record count overlaying the snapshot.
func (d *delta) overlay() int {
	return len(d.sorted) + int(d.tailLen.Load())
}

// deltaFind binary-searches d (sorted by key) for k.
func deltaFind(d []deltaRec, k core.Key) (int, bool) {
	i := sort.Search(len(d), func(i int) bool { return d[i].key >= k })
	return i, i < len(d) && d[i].key == k
}

// ---------------------------------------------------------------------------
// Read path (lock-free, zero-alloc)
// ---------------------------------------------------------------------------

// get resolves k through active → frozen → snapshot. Writers use it too
// (under mu) to maintain the size counter and Delete's return value.
func (sh *rcuShard) get(k core.Key) (core.Value, bool) {
	if v, del, ok := sh.active.Load().lookup(k); ok {
		return v, !del
	}
	if v, del, ok := sh.frozen.Load().lookup(k); ok {
		return v, !del
	}
	return sh.snap.Load().ix.Get(k)
}

func (sh *rcuShard) lookupRun(keys []core.Key, r run, vals []core.Value, oks []bool) (hits int) {
	for j, n := 0, r.len(); j < n; j++ {
		i := r.at(j)
		if vals[i], oks[i] = sh.get(keys[i]); oks[i] {
			hits++
		}
	}
	return hits
}

func (sh *rcuShard) len() int { return int(sh.size.Load()) }

func (sh *rcuShard) deltaLen() int {
	return sh.active.Load().overlay() + sh.frozen.Load().overlay()
}

func (sh *rcuShard) deltaCeiling() int { return sh.bound + len(sh.active.Load().tail) }

func (sh *rcuShard) mergeCounts() (swaps, stalls uint64) {
	return sh.swaps.Load(), sh.stalls.Load()
}

func (sh *rcuShard) stats() core.Stats {
	st := sh.snap.Load().ix.Stats()
	st.Count = sh.len()
	st.IndexBytes += sh.deltaLen() * 24
	return st
}

// ---------------------------------------------------------------------------
// Write path (serialized per shard on mu; readers never wait on it)
// ---------------------------------------------------------------------------

func (sh *rcuShard) insert(k core.Key, v core.Value) {
	sh.mu.Lock()
	sh.insertLocked(k, v)
	sh.mu.Unlock()
}

func (sh *rcuShard) delete(k core.Key) bool {
	sh.mu.Lock()
	ok := sh.deleteLocked(k)
	sh.mu.Unlock()
	return ok
}

// insertRun appends in run order, so later duplicates win exactly as a
// sequential upsert loop would.
func (sh *rcuShard) insertRun(recs []core.KV, r run) {
	sh.mu.Lock()
	for j, n := 0, r.len(); j < n; j++ {
		i := r.at(j)
		sh.insertLocked(recs[i].Key, recs[i].Value)
	}
	sh.mu.Unlock()
}

// deleteRun reports each key's liveness when its turn came: the first
// occurrence of a duplicated key reports it, later occurrences report
// false — the sequential-loop semantics the conformance suite pins.
func (sh *rcuShard) deleteRun(keys []core.Key, r run, oks []bool) {
	sh.mu.Lock()
	for j, n := 0, r.len(); j < n; j++ {
		i := r.at(j)
		oks[i] = sh.deleteLocked(keys[i])
	}
	sh.mu.Unlock()
}

func (sh *rcuShard) insertLocked(k core.Key, v core.Value) {
	sh.waitRoomLocked()
	if _, live := sh.get(k); !live {
		sh.size.Add(1)
	}
	sh.appendLocked(deltaRec{key: k, val: v})
}

// deleteLocked waits for room before it looks: the wait releases mu, so a
// liveness answer taken before it could be stale by the time the
// tombstone is appended (two deleters of one key both reporting true).
func (sh *rcuShard) deleteLocked(k core.Key) bool {
	sh.waitRoomLocked()
	if _, live := sh.get(k); !live {
		return false
	}
	sh.size.Add(-1)
	sh.appendLocked(deltaRec{key: k, del: true})
	return true
}

// waitRoomLocked is the delta-bound backpressure gate: while a background
// merge is in flight and the active sorted run has reached bound, the
// writer blocks until the merge completes. If no merge is running it
// starts one instead of waiting — scheduleLocked never declines here (the
// run is past cap), which is what keeps this loop from spinning.
// Guarantees the active overlay never exceeds bound+len(tail) records
// (see DeltaCeiling).
func (sh *rcuShard) waitRoomLocked() {
	for len(sh.active.Load().sorted) >= sh.bound {
		if !sh.merging {
			sh.scheduleLocked()
			continue
		}
		sh.stalls.Add(1)
		sh.mergeCond.Wait()
	}
}

// appendLocked publishes one record into the active tail, folding the
// tail into the sorted run first if it is full. Caller holds sh.mu.
func (sh *rcuShard) appendLocked(r deltaRec) {
	d := sh.active.Load()
	if int(d.tailLen.Load()) == len(d.tail) {
		d = sh.foldLocked()
	}
	n := d.tailLen.Load()
	d.tail[n] = r          // slot write first...
	d.tailLen.Store(n + 1) // ...then publish the length
}

// foldLocked folds the active delta's tail into its sorted run, publishes
// the result as a fresh active delta and returns the new current active
// (scheduleLocked may have frozen the fold result and installed an empty
// active). Caller holds sh.mu.
func (sh *rcuShard) foldLocked() *delta {
	sh.active.Store(sh.foldDelta(sh.active.Load()))
	sh.scheduleLocked()
	return sh.active.Load()
}

// foldDelta merges d.sorted and d.tail (later tail entries winning) into
// a new delta with a fresh sorted run and a fresh empty tail. A tombstone
// survives the fold only while it still shadows an entry in the frozen
// delta or the snapshot; otherwise the key is absent everywhere below and
// the tombstone is dropped.
func (sh *rcuShard) foldDelta(d *delta) *delta {
	patchp := getDrec(len(d.tail))
	patch := compactTail(d, 0, math.MaxUint64, *patchp)
	snapIx, frozen := sh.snap.Load().ix, sh.frozen.Load()
	sorted := mergeRuns(d.sorted, patch, make([]deltaRec, 0, len(d.sorted)+len(patch)), func(r deltaRec) bool {
		if !r.del {
			return true
		}
		if _, _, ok := frozen.lookup(r.key); ok {
			return true
		}
		_, ok := snapIx.Get(r.key)
		return ok
	})
	putDrec(patchp, patch)
	return &delta{sorted: sorted, tail: make([]deltaRec, len(d.tail))}
}

// compactTail collapses the published tail entries of d with keys in
// [lo, hi] (the whole key space for a fold, the scan window for a range
// scan) into a sorted, distinct-key patch (later entries winning)
// appended to out. With the tail capped at tailCap the quadratic
// insertion is a handful of cache lines per call.
func compactTail(d *delta, lo, hi core.Key, out []deltaRec) []deltaRec {
	n := int(d.tailLen.Load())
	for i := 0; i < n; i++ {
		r := d.tail[i]
		if r.key < lo || r.key > hi {
			continue
		}
		pos, found := deltaFind(out, r.key)
		if found {
			out[pos] = r
			continue
		}
		out = append(out, deltaRec{})
		copy(out[pos+1:], out[pos:])
		out[pos] = r
	}
	return out
}

// mergeRuns appends to out the two-way merge of a sorted run and a tail
// patch (both sorted, distinct keys; the patch wins on equal keys),
// dropping the winners keep rejects; a nil keep keeps everything.
func mergeRuns(sorted, patch, out []deltaRec, keep func(deltaRec) bool) []deltaRec {
	i, j := 0, 0
	for i < len(sorted) || j < len(patch) {
		var r deltaRec
		switch {
		case j >= len(patch) || (i < len(sorted) && sorted[i].key < patch[j].key):
			r = sorted[i]
			i++
		case i >= len(sorted) || patch[j].key < sorted[i].key:
			r = patch[j]
			j++
		default:
			r = patch[j]
			i, j = i+1, j+1
		}
		if keep == nil || keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Paced background merge
// ---------------------------------------------------------------------------

// scheduleLocked starts a background merge when one is due and none is in
// flight: if the frozen slot is free and the active sorted run has
// reached cap, the active delta is frozen (frozen stored FIRST, then a
// fresh active — the reader load order inverted) and a merge goroutine
// is spawned; if a previous merge failed and left the frozen slot
// occupied, the merge is simply re-spawned. Caller holds sh.mu.
func (sh *rcuShard) scheduleLocked() {
	if sh.merging {
		return
	}
	f := sh.frozen.Load()
	if f.empty() {
		a := sh.active.Load()
		if len(a.sorted) < sh.cap {
			return
		}
		sh.frozen.Store(a)
		sh.active.Store(&delta{tail: make([]deltaRec, len(a.tail))})
	}
	sh.merging = true
	go sh.mergeAsync()
}

// mergeAsync rebuilds the snapshot from snapshot+frozen. The expensive
// work — folding the frozen delta, merging records, rebuilding the
// read-optimized index — runs outside every lock; only the pointer swaps
// at the end take mu. The frozen delta is immutable while a merge is in
// flight (writers only append to active), so reading it unlocked is safe.
func (sh *rcuShard) mergeAsync() {
	f := sh.frozen.Load()
	snap := sh.snap.Load()

	// Fold frozen into one sorted overlay. Tombstones are kept: they drop
	// snapshot records during the record merge below.
	patchp := getDrec(len(f.tail))
	patch := compactTail(f, 0, math.MaxUint64, *patchp)
	ovp := getDrec(len(f.sorted) + len(patch))
	ov := mergeRuns(f.sorted, patch, *ovp, nil)
	putDrec(patchp, patch)

	merged := make([]core.KV, 0, len(snap.recs)+len(ov))
	i, j := 0, 0
	for i < len(snap.recs) || j < len(ov) {
		switch {
		case j >= len(ov) || (i < len(snap.recs) && snap.recs[i].Key < ov[j].key):
			merged = append(merged, snap.recs[i])
			i++
		case i >= len(snap.recs) || ov[j].key < snap.recs[i].Key:
			if !ov[j].del {
				merged = append(merged, core.KV{Key: ov[j].key, Value: ov[j].val})
			}
			j++
		default:
			if !ov[j].del {
				merged = append(merged, core.KV{Key: ov[j].key, Value: ov[j].val})
			}
			i, j = i+1, j+1
		}
	}
	putDrec(ovp, ov)

	ix, err := sh.build(merged)

	sh.mu.Lock()
	if err == nil {
		sh.snap.Store(&snapshot{recs: merged, ix: ix})
		sh.frozen.Store(&emptyDelta) // snapshot stored FIRST — see package comment
		sh.swaps.Add(1)
	}
	// On a builder error (it accepted these records at bulk-build time, so
	// failing mid-serve has no recovery path that preserves reads) the
	// shard keeps serving snapshot+frozen+active — correct, just unmerged —
	// and the next write retries via scheduleLocked.
	sh.merging = false
	sh.mergeCond.Broadcast()
	sh.mu.Unlock()
	if err == nil {
		sh.emitSwap(len(merged))
	}
}

// waitMerges drains the merge pipeline: waits out an in-flight merge,
// then keeps scheduling until neither the frozen slot nor a cap-exceeding
// active sorted run remains.
func (sh *rcuShard) waitMerges() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		for sh.merging {
			sh.mergeCond.Wait()
		}
		sh.scheduleLocked()
		if !sh.merging {
			return
		}
	}
}

// close waits out an in-flight merge and closes the snapshot index. The
// shard stays usable: an in-memory backend's Close is a no-op, and later
// writes keep merging.
func (sh *rcuShard) close() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.merging {
		sh.mergeCond.Wait()
	}
	return closeIndex(sh.snap.Load().ix)
}

func (sh *rcuShard) emitSwap(n int) {
	p := sh.parent
	detail := "shard=" + strconv.Itoa(sh.id)
	p.hook.Emit(obs.EvRCUSwap, n, detail)
	if p.mets != nil {
		p.mets[sh.id].Event(obs.Event{Type: obs.EvRCUSwap, N: n, Detail: detail})
	}
}

// ---------------------------------------------------------------------------
// Range scan
// ---------------------------------------------------------------------------

// rangeScan merge-iterates the snapshot window and both delta levels in
// ascending key order, over the three layers it loaded at entry however
// long fn takes. The two tails are first compacted into sorted window
// patches (pooled scratch), then a fixed five-cursor merge emits each key
// once from its highest-precedence source — active patch, active sorted,
// frozen patch, frozen sorted, snapshot — skipping tombstones.
func (sh *rcuShard) rangeScan(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	a := sh.active.Load()
	f := sh.frozen.Load()
	snap := sh.snap.Load()

	pap := getDrec(len(a.tail))
	pa := compactTail(a, lo, hi, *pap)
	pfp := getDrec(len(f.tail))
	pf := compactTail(f, lo, hi, *pfp)

	// Cursor order is precedence order.
	cs := [4][]deltaRec{pa, a.sorted, pf, f.sorted}
	var ci [4]int
	ci[1], _ = deltaFind(a.sorted, lo)
	ci[3], _ = deltaFind(f.sorted, lo)
	recs := snap.recs
	ri := core.LowerBoundKV(recs, lo)

	count := 0
	for {
		var best core.Key
		have := false
		for x := 0; x < 4; x++ {
			if ci[x] < len(cs[x]) {
				k := cs[x][ci[x]].key
				if k > hi {
					ci[x] = len(cs[x]) // sorted: past hi means exhausted
					continue
				}
				if !have || k < best {
					best, have = k, true
				}
			}
		}
		if ri < len(recs) && recs[ri].Key <= hi {
			if !have || recs[ri].Key < best {
				best, have = recs[ri].Key, true
			}
		}
		if !have {
			break
		}
		var r deltaRec
		src := -1
		for x := 0; x < 4; x++ {
			if ci[x] < len(cs[x]) && cs[x][ci[x]].key == best {
				if src < 0 {
					r, src = cs[x][ci[x]], x
				}
				ci[x]++
			}
		}
		if ri < len(recs) && recs[ri].Key == best {
			if src < 0 {
				r, src = deltaRec{key: best, val: recs[ri].Value}, 4
			}
			ri++
		}
		if r.del {
			continue
		}
		count++
		if !fn(r.key, r.val) {
			break
		}
	}
	putDrec(pap, pa)
	putDrec(pfp, pf)
	return count
}
