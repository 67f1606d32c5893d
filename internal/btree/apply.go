package btree

import (
	"math"
	"math/bits"

	"github.com/lix-go/lix/internal/core"
)

// applyChunk is the most ops Apply locates together before it applies
// them. A point op pays one dependent cache miss per level; locating a
// chunk's ops a level at a time puts up to applyChunk of those misses in
// flight at once. BenchmarkApplyRun with runs of 128, ns per op by chunk
// size (two runs each, gets only and mixed, 2-vCPU host):
//
//	chunk    8        16       32       64
//	get   108-126  119-119  103-110  109-111
//	mix   128-131  128-132  119-126  116-129
//
// 32 and 64 are level; 32 is the serving groups' size.
const applyChunk = 32

// applyMinRun is the shortest chunk Apply locates together; the ops of a
// shorter one each descend alone, as a point op does. BenchmarkApplyRun,
// gets, ns per op located against the point loop (2-vCPU host): runs of 1
// 457-469 against 271-280, of 2 196-202 against 235-237.
const applyMinRun = 2

// Apply does a batch of gets, upserts and deletes with the outcome of
// doing them one by one in input order (core.Applier). It works in chunks
// of at most applyChunk ops, in two phases:
//
//   - locate: every op of the chunk descends from the root together, one
//     level at a time, and finds its leaf and its position in that leaf
//     with a branch-free search, so that the chunk's cache misses overlap;
//   - apply, in input order, from those positions: a get is answered in
//     place, and an upsert or delete that neither splits nor underflows its
//     leaf is done on the leaf, with exactly the effect of the point op.
//
// A position located before an earlier op of the chunk wrote is checked
// as a lower bound (two comparisons on lines already loaded); if it is not
// one, it is walked to the lower bound, each earlier write to the leaf
// having moved it by one place at most. An upsert that splits a leaf is
// the point op, from the root, and the later ops located in that leaf
// then belong to its left or its right half, by the new separator. A
// delete that underflows a leaf is the point op too; its borrow or merge
// can change which keys the leaf, its successor and its predecessor hold,
// so the later ops of the chunk located in one of those three go back to
// the root. No other leaf's contents or key range changes: an inner node's
// split, borrow or merge keeps every separator between two adjacent leaves.
//
// A batch of gets writes nothing but vals and oks. The error is always nil.
func (t *Tree) Apply(ops []core.Op, vals []core.Value, oks []bool, sp *core.Span) error {
	defer sp.End(core.StageShard, sp.Begin())
	for c := 0; c < len(ops); c += applyChunk {
		e := min(c+applyChunk, len(ops))
		t.applyChunk(ops[c:e], vals[c:e], oks[c:e])
	}
	return nil
}

// applyChunk is Apply for at most applyChunk ops. at[j] is op j's leaf,
// nil once an earlier op's borrow or merge may have moved its key to
// another leaf; pos[j] its located position in at[j].
func (t *Tree) applyChunk(ops []core.Op, vals []core.Value, oks []bool) {
	var (
		at  [applyChunk]*leaf
		pos [applyChunk]int
	)
	if len(ops) >= applyMinRun {
		t.locate(ops, at[:len(ops)], pos[:len(ops)])
	}
	wrote := false
	for j := range ops {
		op := &ops[j]
		lf, i := at[j], pos[j]
		if lf == nil {
			// Alone, as a point op: with no other op's misses to overlap,
			// the branchy search's speculation is the only overlap left.
			lf = t.findLeaf(op.Key)
			i = t.lowerBound(lf.keys, op.Key)
		} else if wrote {
			i = relocate(lf.keys, i, op.Key)
		}
		found := i < len(lf.keys) && lf.keys[i] == op.Key
		switch op.Kind {
		case core.OpGet:
			vals[j], oks[j] = 0, found
			if found {
				vals[j] = lf.vals[i]
			}
		case core.OpPut:
			switch {
			case found:
				lf.vals[i] = op.Val
			case len(lf.keys) < t.order:
				lf.insertAt(i, op.Key, op.Val)
				t.size++
				wrote = true
			default:
				t.Insert(op.Key, op.Val)
				resplit(ops[j+1:], at[j+1:len(ops)], pos[j+1:len(ops)], lf)
				wrote = true
			}
		case core.OpDel:
			oks[j] = found
			switch {
			case !found:
			case len(lf.keys) > t.minKeys() || t.root == node(lf):
				lf.removeAt(i)
				t.size--
				wrote = true
			default:
				unlocate(at[j+1:len(ops)], lf)
				t.Delete(op.Key)
				wrote = true
			}
		}
	}
}

// locate fills at and pos for every op: all ops step down a level before
// any steps down the next, and every leaf is at the same depth, so they
// reach the leaves together. An op in the same node as the op before it,
// with its key between the separators of that op's child, takes the same
// child without a search: two comparisons on lines just loaded, which
// spares clustered keys most of the descent.
func (t *Tree) locate(ops []core.Op, at []*leaf, pos []int) {
	var nd [applyChunk]node
	for j := range at {
		nd[j] = t.root
	}
	for {
		if _, ok := nd[0].(*inner); !ok {
			break
		}
		var prev *inner
		ci := 0
		for j := range at {
			in, k := nd[j].(*inner), ops[j].Key
			if in != prev || ci > 0 && k < in.keys[ci-1] || ci < len(in.keys) && k >= in.keys[ci] {
				prev, ci = in, t.route(in.keys, k)
			}
			nd[j] = in.children[ci]
		}
	}
	for j := range at {
		lf := nd[j].(*leaf)
		at[j], pos[j] = lf, t.search(lf.keys, ops[j].Key)
	}
}

// resplit re-points the ops of at located in lf, which has just split,
// to the half that now owns their keys: the new right half, lf.next, owns
// the keys from its first key on, and a position moves left by the keys
// that stayed. No other leaf's key range changed.
func resplit(ops []core.Op, at []*leaf, pos []int, lf *leaf) {
	r := lf.next
	for m, l := range at {
		if l == lf && ops[m].Key >= r.keys[0] {
			at[m], pos[m] = r, max(pos[m]-len(lf.keys), 0)
		}
	}
}

// unlocate sends back to the root the ops of at located in lf, in its
// successor or in its predecessor: the leaves whose keys a split, borrow
// or merge of lf may move. It runs before the structural op, while the
// chain still links the three.
func unlocate(at []*leaf, lf *leaf) {
	next := lf.next
	for m, l := range at {
		if l != nil && (l == lf || l == next || l.next == lf) {
			at[m] = nil
		}
	}
}

// search is the lower bound of k in a node's keys: interpolation search
// on an interpolating tree, else branch-free binary search.
func (t *Tree) search(keys []core.Key, k core.Key) int {
	if t.interp {
		return t.lowerBound(keys, k)
	}
	return lowerBound(keys, k)
}

// route is the child of an inner node with separators keys that k
// belongs to: the upper bound of k.
func (t *Tree) route(keys []core.Key, k core.Key) int {
	if t.interp {
		return t.upperBound(keys, k)
	}
	return upperBound(keys, k)
}

// lineKeys is how many keys share a cache line.
const lineKeys = 8

// lowerBound is the first i with keys[i] >= k, or len(keys). It first
// counts the groups of lineKeys keys whose first key is below k: those
// loads do not depend on each other, so a node's lines come in together
// rather than one per halving. Then it halves the one group left with a
// borrow instead of a branch. Neither step branches on a key, so a run of
// searches does not stall on mispredictions either. (Go compiles the
// branchy form's loop-carried if to a jump, not a conditional move.)
func lowerBound(keys []core.Key, k core.Key) int {
	base := 0
	for i := lineKeys; i < len(keys); i += lineKeys {
		_, lt := bits.Sub64(keys[i], k, 0) // 1 iff keys[i] < k
		base += lineKeys & -int(lt)
	}
	n := min(len(keys)-base, lineKeys)
	if n == 0 {
		return base
	}
	for n > 1 {
		half := n >> 1
		_, lt := bits.Sub64(keys[base+half], k, 0)
		base += half & -int(lt)
		n -= half
	}
	_, lt := bits.Sub64(keys[base], k, 0)
	return base + int(lt)
}

// upperBound is the first i with keys[i] > k, or len(keys): the lower
// bound of the next key.
func upperBound(keys []core.Key, k core.Key) int {
	if k == math.MaxUint64 {
		return len(keys)
	}
	return lowerBound(keys, k+1)
}

// relocate is the lower bound of k in keys, walked to from i, a lower
// bound that the chunk's earlier writes may have moved by a few places.
func relocate(keys []core.Key, i int, k core.Key) int {
	i = min(i, len(keys))
	for i > 0 && keys[i-1] >= k {
		i--
	}
	for i < len(keys) && keys[i] < k {
		i++
	}
	return i
}
