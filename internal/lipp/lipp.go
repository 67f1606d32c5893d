// Package lipp implements LIPP (Wu et al., "Updatable Learned Index with
// Precise Positions", PVLDB 2021): a learned tree in which every key sits
// at exactly the slot its node's model predicts — lookups never do a
// last-mile search. When two keys collide on a slot, the slot becomes a
// child node trained on the colliding keys; subtrees that accumulate too
// many conflicts are rebuilt (the paper's cost-based adjustment, reduced
// here to a conflict-ratio trigger, documented as a simplification).
//
// Taxonomy: mutable / pure / in-place insert / dynamic data layout.
package lipp

import (
	"fmt"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

const (
	minNodeSlots   = 16
	capacityFactor = 2 // slots per key at (re)build
	maxNodeSlots   = 1 << 22
)

// slot states
type slotKind uint8

const (
	slotEmpty slotKind = iota
	slotEntry
	slotChild
	// slotRun holds a small sorted run of records whose keys are
	// indistinguishable at float64 resolution (distinct uint64 keys above
	// 2^53 can round to the same float); no linear model can separate
	// them, so they are searched directly.
	slotRun
)

type slot struct {
	kind  slotKind
	key   core.Key
	val   core.Value
	child *node
	run   []core.KV
}

type node struct {
	slope     float64
	base      float64 // predictions use slope*(key-base) to avoid cancellation
	slots     []slot
	size      int // entries in this subtree
	conflicts int // conflicts since (re)build
	buildSize int // subtree size at (re)build
}

// Index is a LIPP tree. The zero value is not usable; call New or Bulk.
type Index struct {
	root *node
	size int
	// Diagnostics.
	Conflicts int
	Rebuilds  int

	hook obs.Hook
}

// SetObserver installs r to receive structural events (conflict-child
// creation, subtree rebuilds) and per-lookup descent depth; nil detaches.
// LIPP is search-free — positions are precise, so there is no error window —
// which means the core search recorder never fires for it. Instead the
// recorded "probes" are the node hops of the descent, with window 0.
func (ix *Index) SetObserver(r obs.Recorder) { ix.hook.SetRecorder(r) }

// New returns an empty index.
func New() *Index {
	return &Index{root: newNode(nil, nil, minNodeSlots)}
}

// Bulk builds an index from records sorted ascending by key (duplicate
// keys: last wins).
func Bulk(recs []core.KV) (*Index, error) {
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			return nil, fmt.Errorf("lipp: bulk input not sorted at %d", i)
		}
	}
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
	ix := &Index{}
	ix.root = newNode(keys, vals, 0)
	ix.size = len(keys)
	return ix, nil
}

// newNode builds a node over sorted distinct keys. capHint of 0 selects
// capacityFactor * len(keys).
func newNode(keys []core.Key, vals []core.Value, capHint int) *node {
	n := len(keys)
	c := capHint
	if c == 0 {
		c = capacityFactor * n
	}
	if c < minNodeSlots {
		c = minNodeSlots
	}
	if c > maxNodeSlots {
		c = maxNodeSlots
	}
	nd := &node{slots: make([]slot, c), size: n, buildSize: n}
	if n == 0 {
		return nd
	}
	lo, hi := float64(keys[0]), float64(keys[n-1])
	nd.base = lo
	if hi > lo {
		nd.slope = float64(c-1) / (hi - lo)
	} else {
		nd.slope = 0
	}
	// Place keys; colliding runs become children.
	i := 0
	for i < n {
		s := nd.predict(keys[i])
		j := i + 1
		for j < n && nd.predict(keys[j]) == s {
			j++
		}
		switch {
		case j-i == 1:
			nd.slots[s] = slot{kind: slotEntry, key: keys[i], val: vals[i]}
		case float64(keys[i]) == float64(keys[j-1]):
			// Float-indistinguishable: store as a searched run.
			run := make([]core.KV, j-i)
			for t := i; t < j; t++ {
				run[t-i] = core.KV{Key: keys[t], Value: vals[t]}
			}
			nd.slots[s] = slot{kind: slotRun, run: run}
		default:
			child := newNode(keys[i:j], vals[i:j], 0)
			nd.slots[s] = slot{kind: slotChild, child: child}
		}
		i = j
	}
	return nd
}

func (nd *node) predict(k core.Key) int {
	// Clamp in float space: for huge keys the product can exceed the int64
	// range, and converting such a float to int is implementation-defined
	// (minInt64 on amd64), which would fold large keys onto slot 0 and
	// break the precise-position ordering invariant.
	p := nd.slope * (float64(k) - nd.base)
	if !(p > 0) { // also catches NaN from 0*Inf degenerate models
		return 0
	}
	if p >= float64(len(nd.slots)) {
		return len(nd.slots) - 1
	}
	return int(p)
}

// Len returns the number of records.
func (ix *Index) Len() int { return ix.size }

// Get returns the value stored for k. Lookup is search-free: it follows
// predicted slots only.
func (ix *Index) Get(k core.Key) (core.Value, bool) {
	if r := ix.hook.Recorder(); r != nil {
		return ix.getRecorded(k, r)
	}
	nd := ix.root
	for {
		s := &nd.slots[nd.predict(k)]
		switch s.kind {
		case slotEmpty:
			return 0, false
		case slotEntry:
			if s.key == k {
				return s.val, true
			}
			return 0, false
		case slotRun:
			i := core.LowerBoundKV(s.run, k)
			if i < len(s.run) && s.run[i].Key == k {
				return s.run[i].Value, true
			}
			return 0, false
		case slotChild:
			nd = s.child
		}
	}
}

// getRecorded is the recording twin of Get: it counts node hops as probes
// (window 0 — precise positions have no error window) and records once.
func (ix *Index) getRecorded(k core.Key, r obs.Recorder) (core.Value, bool) {
	nd := ix.root
	depth := 1
	for {
		s := &nd.slots[nd.predict(k)]
		switch s.kind {
		case slotEmpty:
			r.RecordSearch(depth, 0)
			return 0, false
		case slotEntry:
			r.RecordSearch(depth, 0)
			if s.key == k {
				return s.val, true
			}
			return 0, false
		case slotRun:
			r.RecordSearch(depth, len(s.run))
			i := core.LowerBoundKV(s.run, k)
			if i < len(s.run) && s.run[i].Key == k {
				return s.run[i].Value, true
			}
			return 0, false
		case slotChild:
			depth++
			nd = s.child
		}
	}
}

// Insert upserts (k, v).
func (ix *Index) Insert(k core.Key, v core.Value) {
	path := make([]*node, 0, 16)
	nd := ix.root
	for {
		path = append(path, nd)
		s := &nd.slots[nd.predict(k)]
		if s.kind == slotEmpty {
			*s = slot{kind: slotEntry, key: k, val: v}
			break
		}
		if s.kind == slotEntry {
			if s.key == k {
				s.val = v
				return
			}
			// Conflict: push both entries into a fresh child (or a run
			// when the keys collide at float64 resolution).
			ok, ov := s.key, s.val
			var ckeys []core.Key
			var cvals []core.Value
			if ok < k {
				ckeys = []core.Key{ok, k}
				cvals = []core.Value{ov, v}
			} else {
				ckeys = []core.Key{k, ok}
				cvals = []core.Value{v, ov}
			}
			if float64(ckeys[0]) == float64(ckeys[1]) {
				*s = slot{kind: slotRun, run: []core.KV{
					{Key: ckeys[0], Value: cvals[0]},
					{Key: ckeys[1], Value: cvals[1]},
				}}
			} else {
				*s = slot{kind: slotChild, child: newConflictNode(ckeys, cvals)}
			}
			nd.conflicts++
			ix.Conflicts++
			ix.hook.Emit(obs.EvNodeSplit, 2, "conflict")
			break
		}
		if s.kind == slotRun {
			i := core.LowerBoundKV(s.run, k)
			if i < len(s.run) && s.run[i].Key == k {
				s.run[i].Value = v
				return
			}
			s.run = append(s.run, core.KV{})
			copy(s.run[i+1:], s.run[i:])
			s.run[i] = core.KV{Key: k, Value: v}
			break
		}
		nd = s.child
	}
	ix.size++
	for _, p := range path {
		p.size++
	}
	ix.maybeRebuild(path)
}

// newConflictNode builds a 2-entry child; the caller guarantees the keys
// are float64-distinguishable, so the endpoint-scaled model separates them
// at any capacity.
func newConflictNode(keys []core.Key, vals []core.Value) *node {
	return newNode(keys, vals, minNodeSlots)
}

// maybeRebuild rebuilds the shallowest subtree that has grown well beyond
// its size at build time: conflict chains accumulated since then are
// flattened into a single fresh node sized for the current contents. The
// geometric trigger makes rebuild cost O(log n) amortized per insert.
func (ix *Index) maybeRebuild(path []*node) {
	for _, nd := range path {
		if nd.size > 4*nd.buildSize+64 {
			keys := make([]core.Key, 0, nd.size)
			vals := make([]core.Value, 0, nd.size)
			collect(nd, &keys, &vals)
			rebuilt := newNode(keys, vals, 0)
			*nd = *rebuilt
			ix.Rebuilds++
			ix.hook.Emit(obs.EvRetrain, len(keys), "rebuild")
			return
		}
	}
}

// collect appends the subtree's entries in key order.
func collect(nd *node, keys *[]core.Key, vals *[]core.Value) {
	for i := range nd.slots {
		s := &nd.slots[i]
		switch s.kind {
		case slotEntry:
			*keys = append(*keys, s.key)
			*vals = append(*vals, s.val)
		case slotRun:
			for _, r := range s.run {
				*keys = append(*keys, r.Key)
				*vals = append(*vals, r.Value)
			}
		case slotChild:
			collect(s.child, keys, vals)
		}
	}
}

// Delete removes k, returning true if present. The slot is emptied; child
// chains are not collapsed (as in the paper, space is reclaimed at the
// next rebuild).
func (ix *Index) Delete(k core.Key) bool {
	nd := ix.root
	var path []*node
	for {
		path = append(path, nd)
		s := &nd.slots[nd.predict(k)]
		switch s.kind {
		case slotEmpty:
			return false
		case slotEntry:
			if s.key != k {
				return false
			}
			*s = slot{}
			ix.size--
			for _, p := range path {
				p.size--
			}
			return true
		case slotRun:
			i := core.LowerBoundKV(s.run, k)
			if i >= len(s.run) || s.run[i].Key != k {
				return false
			}
			s.run = append(s.run[:i], s.run[i+1:]...)
			if len(s.run) == 0 {
				*s = slot{}
			}
			ix.size--
			for _, p := range path {
				p.size--
			}
			return true
		case slotChild:
			nd = s.child
		}
	}
}

// Range calls fn for records with lo <= key <= hi in ascending key order
// (model placement is monotone, so slot order equals key order); fn
// returning false stops. Returns records visited.
func (ix *Index) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	count := 0
	var rec func(nd *node) bool
	rec = func(nd *node) bool {
		start := 0
		if nd.size > 0 {
			start = nd.predict(lo)
			// Entries strictly left of the predicted slot are < lo... only
			// when lo itself maps there; conservative: start at the slot.
		}
		for i := start; i < len(nd.slots); i++ {
			s := &nd.slots[i]
			switch s.kind {
			case slotEntry:
				if s.key < lo {
					continue
				}
				if s.key > hi {
					return false
				}
				count++
				if !fn(s.key, s.val) {
					return false
				}
			case slotRun:
				for _, r := range s.run {
					if r.Key < lo {
						continue
					}
					if r.Key > hi {
						return false
					}
					count++
					if !fn(r.Key, r.Value) {
						return false
					}
				}
			case slotChild:
				if !rec(s.child) {
					return false
				}
			}
		}
		return true
	}
	rec(ix.root)
	return count
}

// Height returns the maximum node depth.
func (ix *Index) Height() int {
	var rec func(nd *node) int
	rec = func(nd *node) int {
		m := 1
		for i := range nd.slots {
			if nd.slots[i].kind == slotChild {
				if h := rec(nd.slots[i].child) + 1; h > m {
					m = h
				}
			}
		}
		return m
	}
	return rec(ix.root)
}

// Stats reports structure statistics.
func (ix *Index) Stats() core.Stats {
	var nodes, slots int
	var rec func(nd *node)
	rec = func(nd *node) {
		nodes++
		slots += len(nd.slots)
		for i := range nd.slots {
			switch nd.slots[i].kind {
			case slotChild:
				rec(nd.slots[i].child)
			case slotRun:
				slots += len(nd.slots[i].run)
			}
		}
	}
	rec(ix.root)
	return core.Stats{
		Name:       "lipp",
		Count:      ix.size,
		IndexBytes: nodes*40 + slots*8, // models + slot overhead beyond data
		DataBytes:  slots * 17,
		Height:     ix.Height(),
		Models:     nodes,
	}
}
