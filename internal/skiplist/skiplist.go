// Package skiplist implements a classic probabilistic skip list over uint64
// keys (Pugh, 1990). In the taxonomy it is the traditional component of the
// S3-style hybrid learned indexes; in the benchmark suite it is a secondary
// ordered baseline next to the B+-tree.
package skiplist

import (
	"github.com/lix-go/lix/internal/core"
)

const maxLevel = 24

// List is a skip list. The zero value is not usable; call New.
type List struct {
	head  *node
	level int
	size  int
	rng   uint64
}

type node struct {
	key  core.Key
	val  core.Value
	next []*node
	// deleted marks nodes unlinked from the list; the learned fast lane
	// (learned.go) may still reference them and must not walk from them.
	deleted bool
}

// New returns an empty skip list with a deterministic level generator seed.
func New(seed uint64) *List {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &List{
		head:  &node{next: make([]*node, maxLevel)},
		level: 1,
		rng:   seed,
	}
}

// Len returns the number of records.
func (l *List) Len() int { return l.size }

func (l *List) randLevel() int {
	// xorshift64 with p=1/4 promotion.
	lvl := 1
	for lvl < maxLevel {
		l.rng ^= l.rng << 13
		l.rng ^= l.rng >> 7
		l.rng ^= l.rng << 17
		if l.rng&3 != 0 {
			break
		}
		lvl++
	}
	return lvl
}

// findPrevs fills prevs with the rightmost node before k on every level.
func (l *List) findPrevs(k core.Key, prevs *[maxLevel]*node) *node {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < k {
			x = x.next[i]
		}
		prevs[i] = x
	}
	return x.next[0]
}

// Get returns the value for key k.
func (l *List) Get(k core.Key) (core.Value, bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < k {
			x = x.next[i]
		}
	}
	n := x.next[0]
	if n != nil && n.key == k {
		return n.val, true
	}
	return 0, false
}

// Insert upserts (k, v).
func (l *List) Insert(k core.Key, v core.Value) { l.insert(k, v) }

// insert upserts (k, v), returning true if the key was new.
func (l *List) insert(k core.Key, v core.Value) bool {
	var prevs [maxLevel]*node
	n := l.findPrevs(k, &prevs)
	if n != nil && n.key == k {
		n.val = v
		return false
	}
	lvl := l.randLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			prevs[i] = l.head
		}
		l.level = lvl
	}
	nn := &node{key: k, val: v, next: make([]*node, lvl)}
	for i := 0; i < lvl; i++ {
		nn.next[i] = prevs[i].next[i]
		prevs[i].next[i] = nn
	}
	l.size++
	return true
}

// Delete removes key k, returning true if present.
func (l *List) Delete(k core.Key) bool {
	var prevs [maxLevel]*node
	n := l.findPrevs(k, &prevs)
	if n == nil || n.key != k {
		return false
	}
	for i := 0; i < len(n.next); i++ {
		if prevs[i].next[i] == n {
			prevs[i].next[i] = n.next[i]
		}
	}
	n.deleted = true
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.size--
	return true
}

// Range calls fn for every record with lo <= key <= hi ascending; fn
// returning false stops the scan. Returns records visited.
func (l *List) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	var prevs [maxLevel]*node
	n := l.findPrevs(lo, &prevs)
	count := 0
	for n != nil && n.key <= hi {
		count++
		if !fn(n.key, n.val) {
			return count
		}
		n = n.next[0]
	}
	return count
}

// Stats reports structure statistics.
func (l *List) Stats() core.Stats {
	ptrs := 0
	for x := l.head.next[0]; x != nil; x = x.next[0] {
		ptrs += len(x.next)
	}
	return core.Stats{
		Name:       "skiplist",
		Count:      l.size,
		IndexBytes: 8 * ptrs,
		DataBytes:  16 * l.size,
		Height:     l.level,
		Models:     l.size,
	}
}
