package alex

import (
	"math/bits"

	"github.com/lix-go/lix/internal/core"
)

// applyChunk is the most ops Apply locates together before it applies
// them. A point op pays a dependent cache miss per inner level and one on
// the predicted slot's line; locating a chunk's ops a level at a time puts
// up to applyChunk of those misses in flight at once. BenchmarkApplyRun
// with runs of 128, ns per op by chunk size (two runs each, gets only and
// mixed, 2-vCPU host):
//
//	chunk    8       16       32      64
//	get    92-97   81-84    82-82   79-82
//	mix    99-111  97-103   94-99   93-94
//
// 32 and 64 are level; 32 is the serving groups' size.
const applyChunk = 32

// applyMinRun is the shortest chunk Apply locates together; the ops of a
// shorter one each descend alone, as a point op does. BenchmarkApplyRun,
// ns per op located against the point loop (2-vCPU host): gets in runs of
// 2 172-183 against 136-143, of 3 130-134 against 141-144; mixed, 2
// 181-183 against 161-164, 3 135-136 against 162-164.
const applyMinRun = 3

// Apply does a batch of gets, upserts and deletes with the outcome of
// doing them one by one in input order (core.Applier). It works in chunks
// of at most applyChunk ops, in two phases:
//
//   - locate: every op of the chunk descends from the root together, one
//     level at a time, then loads the line of its data node's model slot,
//     and then searches from there for its lower-bound slot, so that the
//     chunk's cache misses overlap;
//   - apply, in input order, from those slots: a get is answered in place,
//     a delete vacates its slot, and an upsert that neither expands nor
//     splits its node is placed in the gapped array, each with exactly the
//     effect of the point op.
//
// A slot located before an earlier op of the chunk shifted records is
// checked as a lower bound (two comparisons) and searched again from
// where it was if it is not one. An upsert that expands or splits a node
// is the point op, from the root; it rebuilds only that node, so the later
// ops of the chunk located in it go back to the root too.
//
// A batch of gets writes nothing but vals and oks. The error is always nil.
func (ix *Index) Apply(ops []core.Op, vals []core.Value, oks []bool, sp *core.Span) error {
	defer sp.End(core.StageShard, sp.Begin())
	for c := 0; c < len(ops); c += applyChunk {
		e := min(c+applyChunk, len(ops))
		ix.applyChunk(ops[c:e], vals[c:e], oks[c:e])
	}
	return nil
}

// applyChunk is Apply for at most applyChunk ops. at[j] is op j's data
// node, nil once an earlier op expanded or split it; pos[j] its located
// lower-bound slot in at[j].
func (ix *Index) applyChunk(ops []core.Op, vals []core.Value, oks []bool) {
	var (
		at  [applyChunk]*dataNode
		pos [applyChunk]int
	)
	if len(ops) >= applyMinRun {
		ix.locate(ops, at[:len(ops)], pos[:len(ops)])
	}
	shifted := false
	for j := range ops {
		op := &ops[j]
		dn, s := at[j], pos[j]
		if dn == nil {
			dn = ix.findLeaf(op.Key)
			s = dn.lowerSlot(op.Key)
		} else if shifted && !isLowerSlot(dn.slots, s, op.Key) {
			s = core.ExponentialSearchKV(dn.slots, op.Key, s)
		}
		t := dn.find(s, op.Key)
		switch op.Kind {
		case core.OpGet:
			vals[j], oks[j] = 0, t >= 0
			if t >= 0 {
				vals[j] = dn.slots[t].Value
			}
		case core.OpPut:
			switch {
			case t >= 0:
				dn.slots[t].Value = op.Val
			case !dn.full():
				dn.place(s, op.Key, op.Val, &ix.Shifts)
				ix.size++
				shifted = true
			default:
				for m := j + 1; m < len(ops); m++ {
					if at[m] == dn {
						at[m] = nil
					}
				}
				ix.Insert(op.Key, op.Val)
				shifted = true
			}
		case core.OpDel:
			if oks[j] = t >= 0; oks[j] {
				ix.remove(dn, t)
			}
		}
	}
}

// locate fills at and pos for every op: all ops still in inner nodes step
// down a level before any steps down the next; then every op loads its
// model slot's line, and only then does any op search from there. The
// load is put to use without a branch: it moves the search's start one
// slot toward k when the slot's key is below k.
func (ix *Index) locate(ops []core.Op, at []*dataNode, pos []int) {
	var nd [applyChunk]node
	for j := range at {
		nd[j] = ix.root
	}
	for deeper := true; deeper; {
		deeper = false
		for j := range at {
			if in, ok := nd[j].(*inner); ok {
				nd[j] = in.children[in.route(ops[j].Key)]
				deeper = true
			}
		}
	}
	for j := range at {
		dn, k := nd[j].(*dataNode), ops[j].Key
		p := dn.predict(k)
		_, below := bits.Sub64(dn.slots[p].Key, k, 0)
		at[j], pos[j] = dn, min(p+int(below), len(dn.slots)-1)
	}
	for j := range at {
		pos[j] = core.ExponentialSearchKV(at[j].slots, ops[j].Key, pos[j])
	}
}

// isLowerSlot reports whether s is still the first slot with key >= k.
func isLowerSlot(slots []core.KV, s int, k core.Key) bool {
	return s <= len(slots) && (s == 0 || slots[s-1].Key < k) && (s == len(slots) || slots[s].Key >= k)
}
