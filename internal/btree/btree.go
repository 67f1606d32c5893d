// Package btree implements an in-memory B+-tree over uint64 keys. It is the
// traditional baseline that the learned one-dimensional indexes in this
// library are measured against (the role the B-tree plays in the RMI paper),
// and the traditional component of the hybrid learned indexes.
//
// The tree stores records in sorted leaves linked for range scans; interior
// nodes hold separator keys. Inserts are upserts; deletes rebalance by
// borrowing or merging. Bulk loading from sorted input builds packed leaves
// bottom-up.
package btree

import (
	"fmt"
	"unsafe"

	"github.com/lix-go/lix/internal/core"
)

// DefaultOrder is the default maximum number of keys per node. 64-key nodes
// fill two cache lines of keys, the conventional in-memory sweet spot.
const DefaultOrder = 64

// Tree is an in-memory B+-tree. The zero value is not usable; call New.
type Tree struct {
	order  int
	root   node
	size   int
	first  *leaf // leftmost leaf, for full scans
	interp bool  // interpolation search inside nodes (IFB-tree style)
}

// SetInterpolation toggles interpolation search inside nodes, the
// "interpolation-friendly B-tree" idea (Hadian & Heinis, 2019): instead of
// binary search, each node guesses the slot from the key's relative
// position between the node's first and last key and corrects with an
// exponential search. On smooth key distributions this makes the
// traditional B-tree competitive with learned indexes at zero model cost.
func (t *Tree) SetInterpolation(on bool) { t.interp = on }

type node interface {
	isNode()
}

type inner struct {
	keys     []core.Key // keys[i] is the smallest key in children[i+1]
	children []node
}

type leaf struct {
	keys []core.Key
	vals []core.Value
	next *leaf
}

func (*inner) isNode() {}
func (*leaf) isNode()  {}

// New returns an empty tree with the given order (maximum keys per node);
// order < 4 is raised to 4.
func New(order int) *Tree {
	if order < 4 {
		order = 4
	}
	t := &Tree{order: order}
	t.root = t.newLeaf(0)
	t.first = t.root.(*leaf)
	return t
}

// newLeaf returns a leaf of n zero records whose arrays have room for
// order: a leaf's arrays are allocated once and never grow, since a full
// leaf splits before it takes another key.
func (t *Tree) newLeaf(n int) *leaf {
	return &leaf{keys: make([]core.Key, n, t.order), vals: make([]core.Value, n, t.order)}
}

// insertAt puts (k, v) at position i of a leaf that has room for it.
func (lf *leaf) insertAt(i int, k core.Key, v core.Value) {
	n := len(lf.keys)
	lf.keys, lf.vals = lf.keys[:n+1], lf.vals[:n+1]
	copy(lf.keys[i+1:], lf.keys[i:n])
	copy(lf.vals[i+1:], lf.vals[i:n])
	lf.keys[i], lf.vals[i] = k, v
}

// removeAt removes the record at position i, keeping the arrays.
func (lf *leaf) removeAt(i int) {
	n := len(lf.keys) - 1
	copy(lf.keys[i:], lf.keys[i+1:])
	copy(lf.vals[i:], lf.vals[i+1:])
	lf.keys, lf.vals = lf.keys[:n], lf.vals[:n]
}

// NewDefault returns an empty tree with DefaultOrder.
func NewDefault() *Tree { return New(DefaultOrder) }

// Bulk builds a tree from records sorted ascending by key (duplicate keys:
// the last one wins). It is O(n) and produces ~90% full leaves.
func Bulk(order int, recs []core.KV) (*Tree, error) {
	t := New(order)
	if len(recs) == 0 {
		return t, nil
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			return nil, fmt.Errorf("btree: bulk input not sorted at %d", i)
		}
	}
	fill := t.order * 9 / 10
	if fill < 2 {
		fill = 2
	}
	// Build leaves.
	var leaves []*leaf
	var firstKeys []core.Key
	i := 0
	for i < len(recs) {
		lf := t.newLeaf(0)
		for i < len(recs) && len(lf.keys) < fill {
			k := recs[i].Key
			if len(lf.keys) > 0 && lf.keys[len(lf.keys)-1] == k {
				lf.vals[len(lf.vals)-1] = recs[i].Value // duplicate: last wins
			} else {
				lf.keys = append(lf.keys, k)
				lf.vals = append(lf.vals, recs[i].Value)
				t.size++
			}
			i++
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = lf
		}
		leaves = append(leaves, lf)
		firstKeys = append(firstKeys, lf.keys[0])
	}
	t.first = leaves[0]
	// Build interior levels bottom-up.
	level := make([]node, len(leaves))
	for j, lf := range leaves {
		level[j] = lf
	}
	keys := firstKeys
	for len(level) > 1 {
		var nextLevel []node
		var nextKeys []core.Key
		j := 0
		for j < len(level) {
			end := j + fill + 1
			if end > len(level) {
				end = len(level)
			}
			// Avoid a dangling 1-child node at the end by shrinking this
			// group so the final group has at least two children.
			if len(level)-end == 1 && end-j > 2 {
				end--
			}
			in := &inner{
				children: append([]node(nil), level[j:end]...),
				keys:     append([]core.Key(nil), keys[j+1:end]...),
			}
			nextLevel = append(nextLevel, in)
			nextKeys = append(nextKeys, keys[j])
			j = end
		}
		level = nextLevel
		keys = nextKeys
	}
	t.root = level[0]
	return t, nil
}

// Len returns the number of records.
func (t *Tree) Len() int { return t.size }

// Get returns the value for key k.
func (t *Tree) Get(k core.Key) (core.Value, bool) {
	lf := t.findLeaf(k)
	i := t.lowerBound(lf.keys, k)
	if i < len(lf.keys) && lf.keys[i] == k {
		return lf.vals[i], true
	}
	return 0, false
}

// lowerBound dispatches between binary and interpolation search.
func (t *Tree) lowerBound(keys []core.Key, k core.Key) int {
	if !t.interp || len(keys) < 8 {
		return core.LowerBound(keys, k)
	}
	return interpolationLowerBound(keys, k)
}

// interpolationLowerBound guesses the slot from the key's relative position
// in the node's key range, then corrects with an exponential search.
func interpolationLowerBound(keys []core.Key, k core.Key) int {
	n := len(keys)
	lo, hi := keys[0], keys[n-1]
	if k <= lo {
		return 0
	}
	if k > hi {
		return n
	}
	frac := float64(k-lo) / float64(hi-lo)
	guess := int(frac * float64(n-1))
	return core.ExponentialSearch(keys, k, guess)
}

func (t *Tree) findLeaf(k core.Key) *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *inner:
			i := t.upperBound(v.keys, k)
			n = v.children[i]
		}
	}
}

// upperBound dispatches between binary and interpolation search for inner
// node routing (first child index whose subtree may contain k).
func (t *Tree) upperBound(keys []core.Key, k core.Key) int {
	if !t.interp || len(keys) < 8 {
		return core.UpperBound(keys, k)
	}
	i := interpolationLowerBound(keys, k)
	// Convert lower bound to upper bound: skip keys equal to k.
	for i < len(keys) && keys[i] == k {
		i++
	}
	return i
}

// Insert upserts (k, val).
func (t *Tree) Insert(k core.Key, val core.Value) {
	added, splitKey, right := t.insert(t.root, k, val)
	if right != nil {
		t.root = &inner{keys: []core.Key{splitKey}, children: []node{t.root, right}}
	}
	if added {
		t.size++
	}
}

func (t *Tree) insert(n node, k core.Key, val core.Value) (added bool, splitKey core.Key, right node) {
	switch v := n.(type) {
	case *leaf:
		i := core.LowerBound(v.keys, k)
		if i < len(v.keys) && v.keys[i] == k {
			v.vals[i] = val
			return false, 0, nil
		}
		if len(v.keys) < t.order {
			v.insertAt(i, k, val)
			return true, 0, nil
		}
		// Split the full leaf, then insert into the half that owns k, so
		// no leaf ever holds more than order keys or grows its arrays.
		mid := len(v.keys) / 2
		r := t.newLeaf(len(v.keys) - mid)
		copy(r.keys, v.keys[mid:])
		copy(r.vals, v.vals[mid:])
		r.next = v.next
		v.keys, v.vals = v.keys[:mid], v.vals[:mid]
		v.next = r
		if i < mid {
			v.insertAt(i, k, val)
		} else {
			r.insertAt(i-mid, k, val)
		}
		return true, r.keys[0], r
	case *inner:
		i := core.UpperBound(v.keys, k)
		added, sk, rn := t.insert(v.children[i], k, val)
		if rn == nil {
			return added, 0, nil
		}
		v.keys = append(v.keys, 0)
		copy(v.keys[i+1:], v.keys[i:])
		v.keys[i] = sk
		v.children = append(v.children, nil)
		copy(v.children[i+2:], v.children[i+1:])
		v.children[i+1] = rn
		if len(v.keys) <= t.order {
			return added, 0, nil
		}
		mid := len(v.keys) / 2
		r := &inner{
			keys:     append([]core.Key(nil), v.keys[mid+1:]...),
			children: append([]node(nil), v.children[mid+1:]...),
		}
		sk = v.keys[mid]
		v.keys = v.keys[:mid:mid]
		v.children = v.children[: mid+1 : mid+1]
		return added, sk, r
	}
	panic("btree: unknown node type")
}

// Delete removes key k, returning true if it was present.
func (t *Tree) Delete(k core.Key) bool {
	deleted := t.delete(t.root, k)
	if deleted {
		t.size--
	}
	// Collapse a root inner node with a single child.
	if in, ok := t.root.(*inner); ok && len(in.children) == 1 {
		t.root = in.children[0]
	}
	return deleted
}

func (t *Tree) minKeys() int { return t.order / 2 }

// delete removes k from the subtree rooted at n; rebalancing of n's
// children is handled here so n can borrow/merge among them.
func (t *Tree) delete(n node, k core.Key) bool {
	switch v := n.(type) {
	case *leaf:
		i := core.LowerBound(v.keys, k)
		if i >= len(v.keys) || v.keys[i] != k {
			return false
		}
		v.removeAt(i)
		return true
	case *inner:
		ci := core.UpperBound(v.keys, k)
		deleted := t.delete(v.children[ci], k)
		if !deleted {
			return false
		}
		t.rebalance(v, ci)
		return true
	}
	panic("btree: unknown node type")
}

// rebalance fixes child ci of parent p if it underflowed.
func (t *Tree) rebalance(p *inner, ci int) {
	min := t.minKeys()
	switch c := p.children[ci].(type) {
	case *leaf:
		if len(c.keys) >= min || len(p.children) == 1 {
			return
		}
		// Try borrowing from left sibling.
		if ci > 0 {
			l := p.children[ci-1].(*leaf)
			if len(l.keys) > min {
				last := len(l.keys) - 1
				c.insertAt(0, l.keys[last], l.vals[last])
				l.removeAt(last)
				p.keys[ci-1] = c.keys[0]
				return
			}
		}
		// Try borrowing from right sibling.
		if ci < len(p.children)-1 {
			r := p.children[ci+1].(*leaf)
			if len(r.keys) > min {
				c.insertAt(len(c.keys), r.keys[0], r.vals[0])
				r.removeAt(0)
				p.keys[ci] = r.keys[0]
				return
			}
		}
		// Merge with a sibling: neither could lend, so the two hold fewer
		// than order keys together and the survivor's arrays take them.
		if ci > 0 {
			l := p.children[ci-1].(*leaf)
			l.keys = append(l.keys, c.keys...)
			l.vals = append(l.vals, c.vals...)
			l.next = c.next
			p.keys = append(p.keys[:ci-1], p.keys[ci:]...)
			p.children = append(p.children[:ci], p.children[ci+1:]...)
		} else {
			r := p.children[ci+1].(*leaf)
			c.keys = append(c.keys, r.keys...)
			c.vals = append(c.vals, r.vals...)
			c.next = r.next
			p.keys = append(p.keys[:ci], p.keys[ci+1:]...)
			p.children = append(p.children[:ci+1], p.children[ci+2:]...)
		}
	case *inner:
		if len(c.keys) >= min || len(p.children) == 1 {
			return
		}
		if ci > 0 {
			l := p.children[ci-1].(*inner)
			if len(l.keys) > min {
				last := len(l.keys) - 1
				c.keys = append([]core.Key{p.keys[ci-1]}, c.keys...)
				c.children = append([]node{l.children[last+1]}, c.children...)
				p.keys[ci-1] = l.keys[last]
				l.keys = l.keys[:last]
				l.children = l.children[:last+1]
				return
			}
		}
		if ci < len(p.children)-1 {
			r := p.children[ci+1].(*inner)
			if len(r.keys) > min {
				c.keys = append(c.keys, p.keys[ci])
				c.children = append(c.children, r.children[0])
				p.keys[ci] = r.keys[0]
				r.keys = r.keys[1:]
				r.children = r.children[1:]
				return
			}
		}
		if ci > 0 {
			l := p.children[ci-1].(*inner)
			l.keys = append(append(l.keys, p.keys[ci-1]), c.keys...)
			l.children = append(l.children, c.children...)
			p.keys = append(p.keys[:ci-1], p.keys[ci:]...)
			p.children = append(p.children[:ci], p.children[ci+1:]...)
		} else {
			r := p.children[ci+1].(*inner)
			c.keys = append(append(c.keys, p.keys[ci]), r.keys...)
			c.children = append(c.children, r.children...)
			p.keys = append(p.keys[:ci], p.keys[ci+1:]...)
			p.children = append(p.children[:ci+1], p.children[ci+2:]...)
		}
	}
}

// Range calls fn for every record with lo <= key <= hi in ascending order;
// fn returning false stops the scan. It returns the number of records
// visited.
func (t *Tree) Range(lo, hi core.Key, fn func(k core.Key, v core.Value) bool) int {
	lf := t.findLeaf(lo)
	count := 0
	for lf != nil {
		i := core.LowerBound(lf.keys, lo)
		for ; i < len(lf.keys); i++ {
			if lf.keys[i] > hi {
				return count
			}
			count++
			if !fn(lf.keys[i], lf.vals[i]) {
				return count
			}
		}
		lf = lf.next
	}
	return count
}

// Scan calls fn over all records in ascending key order.
func (t *Tree) Scan(fn func(k core.Key, v core.Value) bool) {
	for lf := t.first; lf != nil; lf = lf.next {
		for i := range lf.keys {
			if !fn(lf.keys[i], lf.vals[i]) {
				return
			}
		}
	}
}

// Height returns the number of levels (1 for a single leaf).
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for {
		in, ok := n.(*inner)
		if !ok {
			return h
		}
		h++
		n = in.children[0]
	}
}

// Stats reports structure statistics. IndexBytes is the nodes themselves
// and the inner nodes' arrays; DataBytes is the leaves' key and value
// arrays, counted by capacity.
func (t *Tree) Stats() core.Stats {
	var idxBytes, dataBytes, nodes int
	var walk func(n node)
	walk = func(n node) {
		nodes++
		switch v := n.(type) {
		case *leaf:
			dataBytes += 8*cap(v.keys) + 8*cap(v.vals)
			idxBytes += int(unsafe.Sizeof(*v))
		case *inner:
			// A child is an interface value: two words.
			idxBytes += int(unsafe.Sizeof(*v)) + 8*cap(v.keys) + 16*cap(v.children)
			for _, c := range v.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return core.Stats{
		Name:       "btree",
		Count:      t.size,
		IndexBytes: idxBytes,
		DataBytes:  dataBytes,
		Height:     t.Height(),
		Models:     nodes,
	}
}
