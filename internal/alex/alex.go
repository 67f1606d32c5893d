// Package alex implements ALEX (Ding et al., "ALEX: An Updatable Adaptive
// Learned Index", SIGMOD 2020): a tree of linear-model nodes whose data
// nodes are *gapped arrays* — sorted arrays with interleaved gaps so that
// model-predicted in-place inserts rarely shift more than a few slots.
//
// Taxonomy: mutable / pure / in-place insert / dynamic data layout. The
// structural adaptation (expand vs split) follows the paper's density
// bounds; the full cost model is simplified to those density triggers,
// which this package documents as the delta from the original system: a
// bulk load places each data node at ALEX's initial density 0.7, an expand
// or a split at 0.6, and an insert that would take a node over 0.8 expands
// or splits it first. Every slot array fills the size class the allocator
// gives it, so a node can sit a little below its target.
//
// Gapped-array invariant: every slot holds a key; (re)builds write each gap
// slot with the key of the nearest occupied slot to its left, and later
// shifts may move those filler keys around but never out of order. The slot
// array is therefore always sorted and exponential search from the model's
// predicted slot is exact (internal/alex/invariants.go checks this).
package alex

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/mlmodel"
	"github.com/lix-go/lix/internal/obs"
)

// Tuning constants from the paper (densities) and this implementation
// (node sizes). The densities are ALEX's: a bulk-loaded node has no insert
// history, so it starts at initDensity; a split or expand has just been
// driven by inserts, so its nodes keep more room, at minDensity.
const (
	minDensity     = 0.6 // target density after split/expand
	initDensity    = 0.7 // target density after bulk load
	maxDensity     = 0.8 // insert density trigger
	maxDataSlots   = 1 << 14
	initDataSlots  = 64
	bulkLeafKeys   = 4096 // bulk build: max keys per data node
	innerFanoutMax = 64   // bulk build: max children per inner node
)

// cacheLine is the unit a write on one core takes away from a reader on
// another. Index and dataNode keep the words every lookup loads and the
// words every insert and delete writes on different lines: behind a
// sharded layer one caller's write would otherwise cost the other
// caller's next Get a miss on the root, or on the slice headers and model
// of a leaf whose slots it did not touch. Both structs are a whole number
// of lines, and the allocator starts an object of such a size (pointers
// or not, up to 512 bytes) on a line boundary; alex_test.go pins both.
const cacheLine = 64

// Index is an ALEX tree. The zero value is not usable; call New or Bulk.
type Index struct {
	// Read by every operation, written by a root split and SetObserver.
	root node
	hook obs.Hook
	_    [cacheLine - unsafe.Sizeof(node(nil)) - unsafe.Sizeof(obs.Hook{})]byte

	// Written by inserts and deletes.
	size int
	// adaptation counters (ablation diagnostics)
	Shifts  int
	Expands int
	Splits  int
	_       [cacheLine - 4*unsafe.Sizeof(int(0))]byte
}

// SetObserver installs r to receive structural events (node expands, splits
// and inner-model retrains); nil detaches. The disabled path costs one
// atomic load per event site.
func (ix *Index) SetObserver(r obs.Recorder) { ix.hook.SetRecorder(r) }

type node interface{ isNode() }

type inner struct {
	firstKeys []core.Key // firstKeys[i] = smallest key routed to children[i]
	children  []node
	model     mlmodel.Linear
	trainedAt int // len(children) when the model was last trained
}

// dataNode is a gapped array. A slot's key and value are adjacent, so a get
// finds the value on the key's cache line, and the slot array is one
// allocation: the allocator rounds each array up to its size class on its
// own (a large one to whole 8 KiB pages), and separate key, value and
// occupancy arrays paid that remainder three times.
type dataNode struct {
	// Read by every operation on the leaf, written by expand (and next by
	// a split of the neighbour): two lines.
	slots []core.KV // sorted by key; a gap slot keeps a filler key
	occ   []uint64  // bit i&63 of occ[i>>6] set: slot i holds a record
	model mlmodel.Linear
	next  *dataNode // leaf chain for range scans
	_     [2*cacheLine - 2*unsafe.Sizeof([]uint64(nil)) - unsafe.Sizeof(mlmodel.Linear{}) - unsafe.Sizeof((*dataNode)(nil))]byte

	// Written by every insert and delete that lands here.
	numKeys int
	_       [cacheLine - unsafe.Sizeof(int(0))]byte
}

func (*inner) isNode()    {}
func (*dataNode) isNode() {}

// New returns an empty index.
func New() *Index {
	return &Index{root: newDataNode(nil, initDataSlots)}
}

// Bulk builds an index from records sorted ascending by key (duplicates:
// last wins).
func Bulk(recs []core.KV) (*Index, error) {
	dups := false
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			return nil, fmt.Errorf("alex: bulk input not sorted at %d", i)
		}
		dups = dups || recs[i].Key == recs[i-1].Key
	}
	// The data nodes copy what they hold, so recs is only copied to
	// collapse duplicates (last wins).
	if dups {
		uniq := make([]core.KV, 0, len(recs))
		for _, r := range recs {
			if len(uniq) > 0 && uniq[len(uniq)-1].Key == r.Key {
				uniq[len(uniq)-1].Value = r.Value
				continue
			}
			uniq = append(uniq, r)
		}
		recs = uniq
	}
	ix := &Index{}
	var leaves []*dataNode
	ix.root = buildSubtree(recs, &leaves)
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	ix.size = len(recs)
	return ix, nil
}

// buildSubtree recursively creates inner nodes over equal-count partitions
// until partitions fit in a data node.
func buildSubtree(recs []core.KV, leaves *[]*dataNode) node {
	n := len(recs)
	if n <= bulkLeafKeys {
		dn := newDataNode(recs, core.Clamp(int(float64(n)/initDensity)+2, initDataSlots, maxDataSlots))
		*leaves = append(*leaves, dn)
		return dn
	}
	f := (n + bulkLeafKeys - 1) / bulkLeafKeys
	if f > innerFanoutMax {
		f = innerFanoutMax
	}
	in := &inner{}
	per := (n + f - 1) / f
	for i := 0; i < n; i += per {
		end := i + per
		if end > n {
			end = n
		}
		in.firstKeys = append(in.firstKeys, recs[i].Key)
		in.children = append(in.children, buildSubtree(recs[i:end], leaves))
	}
	in.retrain()
	return in
}

func (in *inner) retrain() {
	xs := make([]float64, len(in.firstKeys))
	ys := make([]float64, len(in.firstKeys))
	for i, k := range in.firstKeys {
		xs[i] = float64(k)
		ys[i] = float64(i)
	}
	_ = in.model.Fit(xs, ys) // non-empty by construction
	if in.model.Slope < 0 {
		in.model.Slope = 0
		in.model.Intercept = float64(len(in.firstKeys)) / 2
	}
	in.trainedAt = len(in.children)
}

// route returns the child index for key k: the last child with
// firstKeys[i] <= k (clamped to 0).
func (in *inner) route(k core.Key) int {
	i := core.Clamp(int(in.model.Predict(float64(k))), 0, len(in.children)-1)
	for i+1 < len(in.children) && k >= in.firstKeys[i+1] {
		i++
	}
	for i > 0 && k < in.firstKeys[i] {
		i--
	}
	return i
}

// newDataNode builds a gapped data node from records sorted by distinct
// keys with at least the given slot capacity (>= len(recs)+1) using
// model-based placement. The slot array is grown to the size class the
// allocator rounds it up to anyway (a large one to whole 8 KiB pages), and
// the slots that gives are gaps too: 2 738 keys at 0.7 ask for 3 913 slots,
// whose 64 KiB hold 4 096.
func newDataNode(recs []core.KV, capacity int) *dataNode {
	n := len(recs)
	slots := slices.Grow([]core.KV(nil), max(capacity, n+1))
	capacity = cap(slots)
	dn := &dataNode{
		slots: slots[:capacity],
		occ:   make([]uint64, (capacity+63)/64),
	}
	if n == 0 {
		return dn
	}
	// Fit model: key -> slot scaled to capacity.
	xs := make([]float64, n)
	ys := make([]float64, n)
	scale := float64(capacity-1) / float64(n)
	for i, r := range recs {
		xs[i] = float64(r.Key)
		ys[i] = float64(i) * scale
	}
	_ = dn.model.Fit(xs, ys)
	if dn.model.Slope < 0 {
		dn.model.Slope = 0
		dn.model.Intercept = float64(capacity) / 2
	}
	// Model-based placement: strictly increasing slots. The gaps before a
	// record are written as it is placed, with the key of the record to
	// their left (leading gaps with the first key), so the slot array is
	// sorted when the last record is in.
	free := 0 // first slot not yet written
	fill := recs[0].Key
	for i, r := range recs {
		slot := int(math.Round(dn.model.Predict(xs[i])))
		if slot < free {
			slot = free
		}
		// Keep room for the remaining keys.
		if maxSlot := capacity - (n - i); slot > maxSlot {
			slot = maxSlot
		}
		for ; free < slot; free++ {
			dn.slots[free].Key = fill
		}
		dn.slots[slot] = r
		dn.occupy(slot)
		fill, free = r.Key, slot+1
	}
	for ; free < capacity; free++ {
		dn.slots[free].Key = fill
	}
	dn.numKeys = n
	return dn
}

func (dn *dataNode) occupied(i int) bool { return dn.occ[i>>6]&(1<<(i&63)) != 0 }
func (dn *dataNode) occupy(i int)        { dn.occ[i>>6] |= 1 << (i & 63) }
func (dn *dataNode) vacate(i int)        { dn.occ[i>>6] &^= 1 << (i & 63) }

// gapFrom returns the first free slot at or after s, or -1 if there is
// none. Bits past the last slot are clear, so they read as free and are
// cut off by the bound.
func (dn *dataNode) gapFrom(s int) int {
	w := s >> 6
	if w >= len(dn.occ) {
		return -1
	}
	free := ^dn.occ[w] &^ (1<<(s&63) - 1)
	for free == 0 {
		if w++; w == len(dn.occ) {
			return -1
		}
		free = ^dn.occ[w]
	}
	if g := w<<6 + bits.TrailingZeros64(free); g < len(dn.slots) {
		return g
	}
	return -1
}

// gapBefore returns the last free slot before s, or -1 if there is none.
func (dn *dataNode) gapBefore(s int) int {
	if s <= 0 {
		return -1
	}
	t := s - 1
	w := t >> 6
	free := ^dn.occ[w] & (2<<(t&63) - 1)
	for free == 0 {
		if w--; w < 0 {
			return -1
		}
		free = ^dn.occ[w]
	}
	return w<<6 + 63 - bits.LeadingZeros64(free)
}

// lowerSlot returns the first slot with key >= k, using exponential search
// from the model prediction.
func (dn *dataNode) lowerSlot(k core.Key) int {
	return core.ExponentialSearchKV(dn.slots, k, dn.predict(k))
}

// predict is the model's slot for k, clamped to the node.
func (dn *dataNode) predict(k core.Key) int {
	return core.Clamp(int(math.Round(dn.model.Predict(float64(k)))), 0, len(dn.slots)-1)
}

// find returns the slot that holds k's record, scanning the slots equal to
// k from s, k's lower bound; -1 when k is absent. Gaps keep their keys, so
// the run can hold gaps before the record.
func (dn *dataNode) find(s int, k core.Key) int {
	for ; s < len(dn.slots) && dn.slots[s].Key == k; s++ {
		if dn.occupied(s) {
			return s
		}
	}
	return -1
}

// full reports whether one more record would take the node over
// maxDensity, so that an insert must expand or split it first.
func (dn *dataNode) full() bool {
	return float64(dn.numKeys+1) > maxDensity*float64(len(dn.slots))
}

// get returns the value for k.
func (dn *dataNode) get(k core.Key) (core.Value, bool) {
	if s := dn.find(dn.lowerSlot(k), k); s >= 0 {
		return dn.slots[s].Value, true
	}
	return 0, false
}

// Len returns the number of records.
func (ix *Index) Len() int { return ix.size }

// findLeaf descends to the data node owning k.
func (ix *Index) findLeaf(k core.Key) *dataNode {
	n := ix.root
	for {
		switch v := n.(type) {
		case *dataNode:
			return v
		case *inner:
			n = v.children[v.route(k)]
		}
	}
}

// Get returns the value stored for k.
func (ix *Index) Get(k core.Key) (core.Value, bool) {
	return ix.findLeaf(k).get(k)
}

// Insert upserts (k, v).
func (ix *Index) Insert(k core.Key, v core.Value) {
	for {
		// Descend, remembering the leaf's parent for a split.
		var parent *inner
		n := ix.root
		for {
			in, ok := n.(*inner)
			if !ok {
				break
			}
			parent = in
			n = in.children[in.route(k)]
		}
		dn := n.(*dataNode)
		s := dn.lowerSlot(k)
		if t := dn.find(s, k); t >= 0 {
			dn.slots[t].Value = v
			return
		}
		// Structural adaptation before placing, if too dense; the leaf
		// and the slot are then found again from the root.
		if dn.full() {
			if 2*len(dn.slots) <= maxDataSlots {
				ix.expand(dn)
			} else {
				ix.split(dn, parent)
			}
			continue
		}
		dn.place(s, k, v, &ix.Shifts)
		ix.size++
		return
	}
}

// place inserts (k, v) into the gapped array at its lower-bound slot s;
// the caller guarantees a free slot exists and k is not present.
func (dn *dataNode) place(s int, k core.Key, v core.Value, shifts *int) {
	// Fast path: the lower-bound slot itself is a gap carrying exactly k
	// (a duplicate left over from a deletion): claim it, order unchanged.
	if s < len(dn.slots) && !dn.occupied(s) && dn.slots[s].Key == k {
		dn.slots[s].Value = v
		dn.occupy(s)
		dn.numKeys++
		return
	}
	// Every slot between s and the nearest gap holds a record, so a shift
	// toward that gap changes one bit of the bitmap: the gap's own.
	right, left := dn.gapFrom(s), dn.gapBefore(s)
	switch {
	case right >= 0 && (left < 0 || right-s <= s-left):
		// Shift [s, right) one slot right, insert at s.
		copy(dn.slots[s+1:right+1], dn.slots[s:right])
		*shifts += right - s
		dn.occupy(right)
		dn.slots[s] = core.KV{Key: k, Value: v}
	case left >= 0:
		// Shift (left, s-1] one slot left, insert at s-1.
		copy(dn.slots[left:s-1], dn.slots[left+1:s])
		*shifts += s - 1 - left
		dn.occupy(left)
		dn.slots[s-1] = core.KV{Key: k, Value: v}
	default:
		// No gap: caller violated the density invariant.
		panic("alex: place called with no free slot")
	}
	dn.numKeys++
}

// expand doubles the node capacity and re-places all keys model-based.
func (ix *Index) expand(dn *dataNode) {
	nn := newDataNode(dn.extract(), 2*len(dn.slots))
	dn.slots, dn.occ = nn.slots, nn.occ
	dn.model = nn.model
	dn.numKeys = nn.numKeys
	ix.Expands++
	ix.hook.Emit(obs.EvNodeSplit, dn.numKeys, "expand")
}

// extract returns the node's live records in sorted order.
func (dn *dataNode) extract() []core.KV {
	recs := make([]core.KV, 0, dn.numKeys)
	for w, word := range dn.occ {
		for ; word != 0; word &= word - 1 {
			recs = append(recs, dn.slots[w<<6+bits.TrailingZeros64(word)])
		}
	}
	return recs
}

// split divides dn into two data nodes at the median and installs them in
// parent (nil when dn is the root: a new root inner node is created).
func (ix *Index) split(dn *dataNode, parent *inner) {
	recs := dn.extract()
	mid := len(recs) / 2
	capL := int(float64(mid)/minDensity) + 2
	capR := int(float64(len(recs)-mid)/minDensity) + 2
	leftN := newDataNode(recs[:mid], capL)
	rightN := newDataNode(recs[mid:], capR)
	rightN.next = dn.next
	leftN.next = rightN
	ix.Splits++
	ix.hook.Emit(obs.EvNodeSplit, len(recs), "split")
	if parent == nil {
		// dn was the root.
		rootFirst := core.Key(0)
		if len(recs) > 0 {
			rootFirst = recs[0].Key
		}
		in := &inner{
			firstKeys: []core.Key{rootFirst, recs[mid].Key},
			children:  []node{leftN, rightN},
		}
		in.retrain()
		ix.hook.Emit(obs.EvRetrain, len(in.children), "root")
		ix.root = in
		return
	}
	ci := parent.route(recs[mid].Key)
	// The child at ci must be dn; replace with left and insert right after.
	parent.children[ci] = leftN
	parent.firstKeys = append(parent.firstKeys, 0)
	parent.children = append(parent.children, nil)
	copy(parent.firstKeys[ci+2:], parent.firstKeys[ci+1:])
	copy(parent.children[ci+2:], parent.children[ci+1:])
	parent.firstKeys[ci+1] = recs[mid].Key
	parent.children[ci+1] = rightN
	// Fix the leaf chain predecessor link.
	ix.fixPrevLink(dn, leftN)
	if len(parent.children) >= 2*parent.trainedAt {
		parent.retrain()
		ix.hook.Emit(obs.EvRetrain, len(parent.children), "inner")
	}
}

// fixPrevLink repoints the leaf whose next was dn to leftN. The chain walk
// is bounded by the leaf count; splits are rare enough that this linear
// walk is acceptable for an in-memory reproduction.
func (ix *Index) fixPrevLink(old, repl *dataNode) {
	for l := ix.leftmostLeaf(); l != nil; l = l.next {
		if l.next == old {
			l.next = repl
			return
		}
		if l == repl {
			return // repl precedes old's position; nothing pointed at old
		}
	}
}

func (ix *Index) leftmostLeaf() *dataNode {
	n := ix.root
	for {
		switch v := n.(type) {
		case *dataNode:
			return v
		case *inner:
			n = v.children[0]
		}
	}
}

// Delete removes k, returning true if present. Slots are vacated in place
// (no contraction), matching the paper's deletion strategy.
func (ix *Index) Delete(k core.Key) bool {
	dn := ix.findLeaf(k)
	s := dn.find(dn.lowerSlot(k), k)
	if s < 0 {
		return false
	}
	ix.remove(dn, s)
	return true
}

// remove vacates slot s of dn. The slot keeps its key as a gap duplicate,
// so the array stays sorted with no rewriting and no slot moves.
func (ix *Index) remove(dn *dataNode, s int) {
	dn.vacate(s)
	dn.numKeys--
	ix.size--
}

// Range calls fn for records with lo <= key <= hi ascending; fn returning
// false stops. Returns records visited.
func (ix *Index) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	dn := ix.findLeaf(lo)
	count := 0
	s := dn.lowerSlot(lo)
	for ; dn != nil; dn, s = dn.next, 0 {
		// The records at or after slot s, a bitmap word at a time.
		mask := ^uint64(0) << (s & 63)
		for w := s >> 6; w < len(dn.occ); w, mask = w+1, ^uint64(0) {
			for word := dn.occ[w] & mask; word != 0; word &= word - 1 {
				r := dn.slots[w<<6+bits.TrailingZeros64(word)]
				if r.Key > hi {
					return count
				}
				count++
				if !fn(r.Key, r.Value) {
					return count
				}
			}
		}
	}
	return count
}

// Height returns the number of levels.
func (ix *Index) Height() int {
	h := 1
	n := ix.root
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
// and the inner nodes' arrays; DataBytes is the data nodes' slot arrays and
// bitmaps.
func (ix *Index) Stats() core.Stats {
	var dataNodes, innerNodes, indexBytes, dataBytes int
	var walk func(n node)
	walk = func(n node) {
		switch v := n.(type) {
		case *dataNode:
			dataNodes++
			indexBytes += int(unsafe.Sizeof(*v))
			dataBytes += 16*cap(v.slots) + 8*cap(v.occ)
		case *inner:
			innerNodes++
			// A child is an interface value: two words.
			indexBytes += int(unsafe.Sizeof(*v)) + 8*cap(v.firstKeys) + 16*cap(v.children)
			for _, c := range v.children {
				walk(c)
			}
		}
	}
	walk(ix.root)
	return core.Stats{
		Name:       "alex",
		Count:      ix.size,
		IndexBytes: indexBytes,
		DataBytes:  dataBytes,
		Height:     ix.Height(),
		Models:     dataNodes + innerNodes,
	}
}
