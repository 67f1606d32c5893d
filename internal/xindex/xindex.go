// Package xindex implements XIndex-lite, a concurrent learned index
// following the architecture of XIndex (Tang et al., PPoPP 2020): a root
// model routes to groups; each group holds an immutable learned-model base
// array plus a small mutable delta buffer protected by a readers-writer
// lock; compaction merges a group's delta into its base and retrains the
// model, splitting oversized groups by swapping in a new root RCU-style
// (readers holding the old root keep a consistent pre-split snapshot).
//
// Taxonomy: mutable / pure / delta-buffer / fixed layout / concurrent (*).
// The original uses lock-free reads over two-phase compaction; this
// reproduction uses per-group RWMutex and an atomic root pointer, which
// preserves the scalability architecture (no global lock on the data path)
// without instruction-level lock-freedom.
package xindex

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// DefaultGroupSize is the target number of base records per group.
const DefaultGroupSize = 4096

// DefaultDeltaCap is the delta-buffer size that triggers compaction.
const DefaultDeltaCap = 256

type deltaRec struct {
	key  core.Key
	val  core.Value
	dead bool
}

type group struct {
	mu     sync.RWMutex
	keys   []core.Key
	vals   []core.Value
	slope  float64
	base   float64
	errLo  int
	errHi  int
	delta  []deltaRec // sorted by key
	sealed bool       // set when the group was replaced by a split
}

type root struct {
	pivots []core.Key // pivots[i] = smallest key routed to groups[i]
	groups []*group
	slope  float64
	base   float64
}

// Index is a concurrent learned index. The zero value is not usable; call
// New or Bulk.
type Index struct {
	root      atomic.Pointer[root]
	structMu  sync.Mutex // serializes root swaps (splits)
	size      atomic.Int64
	groupSize int
	deltaCap  int
	// Compactions counts group compactions (diagnostics).
	Compactions atomic.Int64

	hook obs.Hook
}

// SetObserver installs r to receive structural events: group retrains
// (EvRetrain), compactions (EvCompaction) and RCU root swaps (EvRCUSwap);
// nil detaches. Hook is an atomic pointer, so attaching is safe while
// concurrent readers and writers are on the data path.
func (ix *Index) SetObserver(r obs.Recorder) { ix.hook.SetRecorder(r) }

// New returns an empty index with the given group size and delta capacity
// (0 selects the defaults).
func New(groupSize, deltaCap int) *Index {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	if deltaCap <= 0 {
		deltaCap = DefaultDeltaCap
	}
	ix := &Index{groupSize: groupSize, deltaCap: deltaCap}
	g := newGroup(nil, nil)
	r := buildRoot([]*group{g}, []core.Key{0})
	ix.root.Store(r)
	return ix
}

// Bulk builds an index from records sorted ascending by key (duplicates:
// last wins).
func Bulk(recs []core.KV, groupSize, deltaCap int) (*Index, error) {
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			return nil, fmt.Errorf("xindex: bulk input not sorted at %d", i)
		}
	}
	ix := New(groupSize, deltaCap)
	keys := make([]core.Key, 0, len(recs))
	vals := make([]core.Value, 0, len(recs))
	for i := range recs {
		if len(keys) > 0 && keys[len(keys)-1] == recs[i].Key {
			vals[len(vals)-1] = recs[i].Value
			continue
		}
		keys = append(keys, recs[i].Key)
		vals = append(vals, recs[i].Value)
	}
	if len(keys) == 0 {
		return ix, nil
	}
	var groups []*group
	var pivots []core.Key
	for i := 0; i < len(keys); i += ix.groupSize {
		end := i + ix.groupSize
		if end > len(keys) {
			end = len(keys)
		}
		groups = append(groups, newGroup(keys[i:end], vals[i:end]))
		pivots = append(pivots, keys[i])
	}
	pivots[0] = 0 // the first group owns everything below its first key
	ix.root.Store(buildRoot(groups, pivots))
	ix.size.Store(int64(len(keys)))
	return ix, nil
}

func newGroup(keys []core.Key, vals []core.Value) *group {
	g := &group{
		keys: append([]core.Key(nil), keys...),
		vals: append([]core.Value(nil), vals...),
	}
	g.retrain()
	return g
}

// retrain fits the group's linear model and measures its error bounds.
func (g *group) retrain() {
	n := len(g.keys)
	if n == 0 {
		g.slope, g.base, g.errLo, g.errHi = 0, 0, 0, 0
		return
	}
	lo, hi := float64(g.keys[0]), float64(g.keys[n-1])
	g.base = lo
	if hi > lo {
		g.slope = float64(n-1) / (hi - lo)
	} else {
		g.slope = 0
	}
	g.errLo, g.errHi = 0, 0
	for i, k := range g.keys {
		e := i - g.predict(k)
		if e < g.errLo {
			g.errLo = e
		}
		if e > g.errHi {
			g.errHi = e
		}
	}
}

func (g *group) predict(k core.Key) int {
	return int(math.Round(g.slope * (float64(k) - g.base)))
}

// lowerIdx returns the first base index with key >= k.
func (g *group) lowerIdx(k core.Key) int {
	n := len(g.keys)
	if n == 0 {
		return 0
	}
	if k > g.keys[n-1] {
		return n
	}
	p := g.predict(k)
	lo := core.Clamp(p+g.errLo-1, 0, n)
	hi := core.Clamp(p+g.errHi+2, lo, n)
	return core.SearchRange(g.keys, k, lo, hi)
}

// deltaFind returns the delta index of k and whether it is present.
func (g *group) deltaFind(k core.Key) (int, bool) {
	lo, hi := 0, len(g.delta)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.delta[mid].key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(g.delta) && g.delta[lo].key == k
}

func buildRoot(groups []*group, pivots []core.Key) *root {
	r := &root{pivots: pivots, groups: groups}
	n := len(pivots)
	if n > 1 {
		lo, hi := float64(pivots[1]), float64(pivots[n-1])
		r.base = lo
		if hi > lo {
			r.slope = float64(n-2) / (hi - lo)
		}
	}
	return r
}

// route returns the group index owning k.
func (r *root) route(k core.Key) int {
	i := core.Clamp(int(r.slope*(float64(k)-r.base))+1, 0, len(r.groups)-1)
	for i+1 < len(r.groups) && k >= r.pivots[i+1] {
		i++
	}
	for i > 0 && k < r.pivots[i] {
		i--
	}
	return i
}

// Len returns the number of live records.
func (ix *Index) Len() int { return int(ix.size.Load()) }

// Get returns the value stored for k. Safe for concurrent use.
func (ix *Index) Get(k core.Key) (core.Value, bool) {
	r := ix.root.Load()
	g := r.groups[r.route(k)]
	g.mu.RLock()
	defer g.mu.RUnlock()
	if i, ok := g.deltaFind(k); ok {
		if g.delta[i].dead {
			return 0, false
		}
		return g.delta[i].val, true
	}
	if i := g.lowerIdx(k); i < len(g.keys) && g.keys[i] == k {
		return g.vals[i], true
	}
	return 0, false
}

// Insert upserts (k, v). Safe for concurrent use.
func (ix *Index) Insert(k core.Key, v core.Value) {
	ix.put(deltaRec{key: k, val: v})
}

// Delete removes k, returning true if it was live. Safe for concurrent use.
func (ix *Index) Delete(k core.Key) bool {
	_, live := ix.Get(k)
	if !live {
		return false
	}
	ix.put(deltaRec{key: k, dead: true})
	return true
}

func (ix *Index) put(rec deltaRec) {
	for {
		r := ix.root.Load()
		g := r.groups[r.route(rec.key)]
		g.mu.Lock()
		if g.sealed {
			g.mu.Unlock()
			continue // a split replaced this group; retry on the new root
		}
		wasLive := g.liveLocked(rec.key)
		if i, ok := g.deltaFind(rec.key); ok {
			g.delta[i] = rec
		} else {
			g.delta = append(g.delta, deltaRec{})
			copy(g.delta[i+1:], g.delta[i:])
			g.delta[i] = rec
		}
		switch {
		case wasLive && rec.dead:
			ix.size.Add(-1)
		case !wasLive && !rec.dead:
			ix.size.Add(1)
		}
		needCompact := len(g.delta) >= ix.deltaCap
		g.mu.Unlock()
		if needCompact {
			ix.compact(g)
		}
		return
	}
}

// liveLocked reports whether k is live in g (caller holds the lock).
func (g *group) liveLocked(k core.Key) bool {
	if i, ok := g.deltaFind(k); ok {
		return !g.delta[i].dead
	}
	i := g.lowerIdx(k)
	return i < len(g.keys) && g.keys[i] == k
}

// compact merges g's delta into its base, retrains, and splits the group
// if it grew beyond 2x the target size.
func (ix *Index) compact(g *group) {
	ix.structMu.Lock()
	defer ix.structMu.Unlock()
	g.mu.Lock()
	if g.sealed || len(g.delta) == 0 {
		g.mu.Unlock()
		return
	}
	keys, vals := mergeBaseDelta(g.keys, g.vals, g.delta)
	if len(keys) <= 2*ix.groupSize {
		g.keys, g.vals = keys, vals
		g.delta = nil
		g.retrain()
		g.mu.Unlock()
		ix.Compactions.Add(1)
		ix.hook.Emit(obs.EvCompaction, len(keys), "in-place")
		ix.hook.Emit(obs.EvRetrain, len(keys), "group")
		return
	}
	// Split into chunks of groupSize under the structure lock.
	g.sealed = true
	g.mu.Unlock()
	ix.Compactions.Add(1)
	ix.hook.Emit(obs.EvCompaction, len(keys), "split")
	old := ix.root.Load()
	var newGroups []*group
	var newPivots []core.Key
	gi := -1 // index of g in the old root, by identity
	for i, og := range old.groups {
		if og == g {
			gi = i
			break
		}
	}
	for i, og := range old.groups {
		if i == gi {
			for s := 0; s < len(keys); s += ix.groupSize {
				e := s + ix.groupSize
				if e > len(keys) {
					e = len(keys)
				}
				ng := newGroup(keys[s:e], vals[s:e])
				piv := keys[s]
				if s == 0 {
					piv = old.pivots[i]
				}
				newGroups = append(newGroups, ng)
				newPivots = append(newPivots, piv)
			}
			continue
		}
		newGroups = append(newGroups, og)
		newPivots = append(newPivots, old.pivots[i])
	}
	ix.root.Store(buildRoot(newGroups, newPivots))
	ix.hook.Emit(obs.EvRCUSwap, len(newGroups), "split")
}

// mergeBaseDelta merges a sorted base with a sorted delta, dropping dead
// records; delta wins on duplicates.
func mergeBaseDelta(keys []core.Key, vals []core.Value, delta []deltaRec) ([]core.Key, []core.Value) {
	outK := make([]core.Key, 0, len(keys)+len(delta))
	outV := make([]core.Value, 0, len(keys)+len(delta))
	m := baseDelta{keys: keys, vals: vals, delta: delta}
	core.MergeNewestFirst(m.lens(), m.key, func(s, from, to int) bool {
		if s == 1 {
			outK, outV = append(outK, keys[from:to]...), append(outV, vals[from:to]...)
			return true
		}
		for _, d := range delta[from:to] {
			if !d.dead {
				outK, outV = append(outK, d.key), append(outV, d.val)
			}
		}
		return true
	})
	return outK, outV
}

// baseDelta is a sorted base (keys, vals) and a sorted delta as the two
// sources of a newest-first merge: source 0 is the delta, source 1 the base.
type baseDelta struct {
	keys  []core.Key
	vals  []core.Value
	delta []deltaRec
}

func (m *baseDelta) lens() []int { return []int{len(m.delta), len(m.keys)} }

func (m *baseDelta) key(s, i int) core.Key {
	if s == 0 {
		return m.delta[i].key
	}
	return m.keys[i]
}

func (m *baseDelta) rec(s, i int) deltaRec {
	if s == 0 {
		return m.delta[i]
	}
	return deltaRec{key: m.keys[i], val: m.vals[i]}
}

// Range calls fn for live records with lo <= key <= hi ascending; fn
// returning false stops. The scan takes a consistent per-group snapshot
// (group lock held while that group is scanned). Returns records visited.
func (ix *Index) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	r := ix.root.Load()
	count := 0
	stop := false
	for gi := r.route(lo); gi < len(r.groups) && !stop; gi++ {
		g := r.groups[gi]
		g.mu.RLock()
		i := g.lowerIdx(lo)
		j, _ := g.deltaFind(lo)
		m := baseDelta{keys: g.keys[i:], vals: g.vals[i:], delta: g.delta[j:]}
		core.MergeNewestFirst(m.lens(), m.key, func(s, from, to int) bool {
			for x := from; x < to; x++ {
				d := m.rec(s, x)
				if stop = d.key > hi; stop {
					return false
				}
				if !d.dead {
					count++
					if stop = !fn(d.key, d.val); stop {
						return false
					}
				}
			}
			return true
		})
		g.mu.RUnlock()
	}
	return count
}

// Compact forces compaction of every group (test/maintenance hook; the
// production trigger is the delta capacity).
func (ix *Index) Compact() {
	r := ix.root.Load()
	for _, g := range r.groups {
		ix.compact(g)
	}
}

// Stats reports structure statistics.
func (ix *Index) Stats() core.Stats {
	r := ix.root.Load()
	var baseRecs, deltaRecs int
	for _, g := range r.groups {
		g.mu.RLock()
		baseRecs += len(g.keys)
		deltaRecs += len(g.delta)
		g.mu.RUnlock()
	}
	return core.Stats{
		Name:       "xindex",
		Count:      ix.Len(),
		IndexBytes: len(r.groups)*64 + deltaRecs*17,
		DataBytes:  baseRecs * 16,
		Height:     2,
		Models:     len(r.groups) + 1,
	}
}
