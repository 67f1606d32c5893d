// Package alex implements ALEX (Ding et al., "ALEX: An Updatable Adaptive
// Learned Index", SIGMOD 2020): a tree of linear-model nodes whose data
// nodes are *gapped arrays* — sorted arrays with interleaved gaps so that
// model-predicted in-place inserts rarely shift more than a few slots.
//
// Taxonomy: mutable / pure / in-place insert / dynamic data layout. The
// structural adaptation (expand vs split) follows the paper's density
// bounds; the full cost model is simplified to those density triggers,
// which this package documents as the delta from the original system.
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
	"unsafe"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/mlmodel"
	"github.com/lix-go/lix/internal/obs"
)

// Tuning constants from the paper (densities) and this implementation
// (node sizes).
const (
	minDensity     = 0.6 // target density after bulk/expand
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

type dataNode struct {
	// Read by every operation on the leaf, written by expand (and next by
	// a split of the neighbour): two lines.
	keys  []core.Key
	vals  []core.Value
	occ   []bool
	model mlmodel.Linear
	next  *dataNode // leaf chain for range scans
	_     [2*cacheLine - 3*unsafe.Sizeof([]bool(nil)) - unsafe.Sizeof(mlmodel.Linear{}) - unsafe.Sizeof((*dataNode)(nil))]byte

	// Written by every insert and delete that lands here.
	numKeys int
	_       [cacheLine - unsafe.Sizeof(int(0))]byte
}

func (*inner) isNode()    {}
func (*dataNode) isNode() {}

// New returns an empty index.
func New() *Index {
	return &Index{root: newDataNode(nil, nil, initDataSlots)}
}

// Bulk builds an index from records sorted ascending by key (duplicates:
// last wins).
func Bulk(recs []core.KV) (*Index, error) {
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			return nil, fmt.Errorf("alex: bulk input not sorted at %d", i)
		}
	}
	// Collapse duplicates (last wins).
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
	var leaves []*dataNode
	ix.root = buildSubtree(keys, vals, &leaves)
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	ix.size = len(keys)
	return ix, nil
}

// buildSubtree recursively creates inner nodes over equal-count partitions
// until partitions fit in a data node.
func buildSubtree(keys []core.Key, vals []core.Value, leaves *[]*dataNode) node {
	n := len(keys)
	if n <= bulkLeafKeys {
		capHint := int(float64(n)/minDensity) + 2
		if capHint < initDataSlots {
			capHint = initDataSlots
		}
		if capHint > maxDataSlots {
			capHint = maxDataSlots
		}
		dn := newDataNode(keys, vals, capHint)
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
		in.firstKeys = append(in.firstKeys, keys[i])
		in.children = append(in.children, buildSubtree(keys[i:end], vals[i:end], leaves))
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

// newDataNode builds a gapped data node from sorted keys/vals with the
// given slot capacity (>= len(keys)+1) using model-based placement.
func newDataNode(keys []core.Key, vals []core.Value, capacity int) *dataNode {
	n := len(keys)
	if capacity < n+1 {
		capacity = n + 1
	}
	dn := &dataNode{
		keys: make([]core.Key, capacity),
		vals: make([]core.Value, capacity),
		occ:  make([]bool, capacity),
	}
	if n == 0 {
		return dn
	}
	// Fit model: key -> slot scaled to capacity.
	xs := make([]float64, n)
	ys := make([]float64, n)
	scale := float64(capacity-1) / float64(n)
	for i, k := range keys {
		xs[i] = float64(k)
		ys[i] = float64(i) * scale
	}
	_ = dn.model.Fit(xs, ys)
	if dn.model.Slope < 0 {
		dn.model.Slope = 0
		dn.model.Intercept = float64(capacity) / 2
	}
	// Model-based placement: strictly increasing slots.
	last := -1
	for i := 0; i < n; i++ {
		slot := int(math.Round(dn.model.Predict(xs[i])))
		if slot <= last {
			slot = last + 1
		}
		// Keep room for the remaining keys.
		maxSlot := capacity - (n - i)
		if slot > maxSlot {
			slot = maxSlot
		}
		dn.keys[slot] = keys[i]
		dn.vals[slot] = vals[i]
		dn.occ[slot] = true
		last = slot
	}
	dn.numKeys = n
	dn.fillGaps()
	return dn
}

// fillGaps rewrites gap slots with the nearest occupied key to the left
// (leading gaps take the first occupied key) to restore sortedness.
func (dn *dataNode) fillGaps() {
	// Find first occupied.
	first := -1
	for i, o := range dn.occ {
		if o {
			first = i
			break
		}
	}
	if first == -1 {
		return
	}
	cur := dn.keys[first]
	for i := 0; i < first; i++ {
		dn.keys[i] = cur
	}
	for i := first; i < len(dn.keys); i++ {
		if dn.occ[i] {
			cur = dn.keys[i]
		} else {
			dn.keys[i] = cur
		}
	}
}

// lowerSlot returns the first slot with key >= k, using exponential search
// from the model prediction.
func (dn *dataNode) lowerSlot(k core.Key) int {
	pred := core.Clamp(int(math.Round(dn.model.Predict(float64(k)))), 0, len(dn.keys)-1)
	return core.ExponentialSearch(dn.keys, k, pred)
}

// get returns the value for k.
func (dn *dataNode) get(k core.Key) (core.Value, bool) {
	s := dn.lowerSlot(k)
	for s < len(dn.keys) && dn.keys[s] == k {
		if dn.occ[s] {
			return dn.vals[s], true
		}
		s++
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

// Insert upserts (k, v); returns true if the key was new.
func (ix *Index) Insert(k core.Key, v core.Value) bool {
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
		// Upsert: scan the run of equal keys for an occupied slot.
		for t := s; t < len(dn.keys) && dn.keys[t] == k; t++ {
			if dn.occ[t] {
				dn.vals[t] = v
				return false
			}
		}
		// Structural adaptation before placing, if too dense; the leaf
		// and the slot are then found again from the root.
		if float64(dn.numKeys+1) > maxDensity*float64(len(dn.keys)) {
			if 2*len(dn.keys) <= maxDataSlots {
				ix.expand(dn)
			} else {
				ix.split(dn, parent)
			}
			continue
		}
		dn.place(s, k, v, &ix.Shifts)
		ix.size++
		return true
	}
}

// place inserts (k, v) into the gapped array at its lower-bound slot s;
// the caller guarantees a free slot exists and k is not present.
func (dn *dataNode) place(s int, k core.Key, v core.Value, shifts *int) {
	// Fast path: the lower-bound slot itself is a gap carrying exactly k
	// (a duplicate left over from a deletion): claim it, order unchanged.
	if s < len(dn.keys) && !dn.occ[s] && dn.keys[s] == k {
		dn.keys[s] = k
		dn.vals[s] = v
		dn.occ[s] = true
		dn.numKeys++
		return
	}
	// Find nearest gap right and left of s.
	right := -1
	for t := s; t < len(dn.keys); t++ {
		if !dn.occ[t] {
			right = t
			break
		}
	}
	left := -1
	for t := s - 1; t >= 0; t-- {
		if !dn.occ[t] {
			left = t
			break
		}
	}
	switch {
	case right >= 0 && (left < 0 || right-s <= s-left):
		// Shift [s, right) one slot right, insert at s.
		copy(dn.keys[s+1:right+1], dn.keys[s:right])
		copy(dn.vals[s+1:right+1], dn.vals[s:right])
		copy(dn.occ[s+1:right+1], dn.occ[s:right])
		*shifts += right - s
		dn.keys[s] = k
		dn.vals[s] = v
		dn.occ[s] = true
	case left >= 0:
		// Shift (left, s-1] one slot left, insert at s-1.
		copy(dn.keys[left:s-1], dn.keys[left+1:s])
		copy(dn.vals[left:s-1], dn.vals[left+1:s])
		copy(dn.occ[left:s-1], dn.occ[left+1:s])
		*shifts += s - 1 - left
		dn.keys[s-1] = k
		dn.vals[s-1] = v
		dn.occ[s-1] = true
	default:
		// No gap: caller violated the density invariant.
		panic("alex: place called with no free slot")
	}
	dn.numKeys++
}

// expand doubles the node capacity and re-places all keys model-based.
func (ix *Index) expand(dn *dataNode) {
	keys, vals := dn.extract()
	nn := newDataNode(keys, vals, 2*len(dn.keys))
	dn.keys, dn.vals, dn.occ = nn.keys, nn.vals, nn.occ
	dn.model = nn.model
	dn.numKeys = nn.numKeys
	ix.Expands++
	ix.hook.Emit(obs.EvNodeSplit, dn.numKeys, "expand")
}

// extract returns the node's live records in sorted order.
func (dn *dataNode) extract() ([]core.Key, []core.Value) {
	keys := make([]core.Key, 0, dn.numKeys)
	vals := make([]core.Value, 0, dn.numKeys)
	for i := range dn.keys {
		if dn.occ[i] {
			keys = append(keys, dn.keys[i])
			vals = append(vals, dn.vals[i])
		}
	}
	return keys, vals
}

// split divides dn into two data nodes at the median and installs them in
// parent (nil when dn is the root: a new root inner node is created).
func (ix *Index) split(dn *dataNode, parent *inner) {
	keys, vals := dn.extract()
	mid := len(keys) / 2
	capL := int(float64(mid)/minDensity) + 2
	capR := int(float64(len(keys)-mid)/minDensity) + 2
	leftN := newDataNode(keys[:mid], vals[:mid], capL)
	rightN := newDataNode(keys[mid:], vals[mid:], capR)
	rightN.next = dn.next
	leftN.next = rightN
	ix.Splits++
	ix.hook.Emit(obs.EvNodeSplit, len(keys), "split")
	if parent == nil {
		// dn was the root.
		rootFirst := core.Key(0)
		if len(keys) > 0 {
			rootFirst = keys[0]
		}
		in := &inner{
			firstKeys: []core.Key{rootFirst, keys[mid]},
			children:  []node{leftN, rightN},
		}
		in.retrain()
		ix.hook.Emit(obs.EvRetrain, len(in.children), "root")
		ix.root = in
		return
	}
	ci := parent.route(keys[mid])
	// The child at ci must be dn; replace with left and insert right after.
	parent.children[ci] = leftN
	parent.firstKeys = append(parent.firstKeys, 0)
	parent.children = append(parent.children, nil)
	copy(parent.firstKeys[ci+2:], parent.firstKeys[ci+1:])
	copy(parent.children[ci+2:], parent.children[ci+1:])
	parent.firstKeys[ci+1] = keys[mid]
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
	s := dn.lowerSlot(k)
	for ; s < len(dn.keys) && dn.keys[s] == k; s++ {
		if dn.occ[s] {
			// The slot keeps its key value as a gap duplicate, so the
			// array stays sorted with no rewriting.
			dn.occ[s] = false
			dn.numKeys--
			ix.size--
			return true
		}
	}
	return false
}

// Range calls fn for records with lo <= key <= hi ascending; fn returning
// false stops. Returns records visited.
func (ix *Index) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	dn := ix.findLeaf(lo)
	count := 0
	s := dn.lowerSlot(lo)
	for dn != nil {
		for ; s < len(dn.keys); s++ {
			if !dn.occ[s] {
				continue
			}
			if dn.keys[s] > hi {
				return count
			}
			count++
			if !fn(dn.keys[s], dn.vals[s]) {
				return count
			}
		}
		dn = dn.next
		s = 0
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

// Stats reports structure statistics.
func (ix *Index) Stats() core.Stats {
	var dataNodes, innerNodes, slots int
	var walk func(n node)
	walk = func(n node) {
		switch v := n.(type) {
		case *dataNode:
			dataNodes++
			slots += len(v.keys)
		case *inner:
			innerNodes++
			for _, c := range v.children {
				walk(c)
			}
		}
	}
	walk(ix.root)
	return core.Stats{
		Name:       "alex",
		Count:      ix.size,
		IndexBytes: innerNodes*48 + dataNodes*16, // models + headers
		DataBytes:  slots * 17,                   // key+val+occ per slot
		Height:     ix.Height(),
		Models:     dataNodes + innerNodes,
	}
}
