package page

import (
	"fmt"
	"slices"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/segment"
)

const (
	// fenceEps is the PLA error bound, in fence-array slots, the fence
	// model is trained to.
	fenceEps = 8
	// minModelFences is the fence count below which the model is skipped
	// entirely: a binary search over a handful of fences beats evaluating
	// a PLA.
	minModelFences = 64
)

// Fences is a learned index over the first key of each of a sequence of
// pages: the fence array, kept in memory, and a PLA of ε-bounded segments
// over it (the PGM-index construction). Find predicts a fence slot,
// corrects it with a windowed binary search, and verifies the answer. It
// finds a page of a paged-pgm index (fenceRouter) and a data page of an
// sst run file alike: Bourbon's per-run model and the fence model in
// front of a disk-resident learned index are the same mechanism.
//
// The model is advisory, never load-bearing: after the windowed search
// the result is verified against the neighboring fences with exact
// integer compares, and on any violation (float64 collapse of nearby huge
// keys, a model trained on another distribution) Find falls back to a
// binary search over the whole array. Correctness never depends on the
// model; only speed does.
type Fences struct {
	keys  []core.Key
	model []segment.Segment // nil below minModelFences
	// churn counts the fence insertions and removals since the model was
	// trained. Each moves a key's lower bound by at most one slot, so it
	// widens the window the model's prediction must be searched in.
	churn int
}

// NewFences returns the fence index over keys (ascending; the first key
// of each page, in page order), with its model trained. It keeps keys.
func NewFences(keys []core.Key) Fences {
	f := Fences{keys: keys}
	f.train()
	return f
}

// Keys returns the fence array.
func (f *Fences) Keys() []core.Key { return f.keys }

// Segments returns the number of segments in the model, 0 without one.
func (f *Fences) Segments() int { return len(f.model) }

// train rebuilds the model over the current fences.
func (f *Fences) train() {
	f.churn, f.model = 0, nil
	if len(f.keys) < minModelFences {
		return
	}
	xs := make([]float64, len(f.keys))
	for i, k := range f.keys {
		xs[i] = float64(k)
	}
	f.model = segment.BuildOptimal(xs, segment.Positions(len(xs)), fenceEps)
}

// stale reports whether enough fences have come and gone since training
// that the widened window erodes the model's advantage, or whether the
// array has grown big enough to get a model.
func (f *Fences) stale() bool {
	return f.churn > fenceEps || (f.model == nil && len(f.keys) >= minModelFences)
}

// Window returns the slots [lo, hi] that hold k's lower bound (the first
// fence >= k) when the model is right: its prediction, clamped to the
// slots of its segment — a key past a segment's last fence has its lower
// bound at the segment's end, where the extrapolated line may overshoot —
// and widened by fenceEps plus one slot per fence of churn, clamped to the
// array. Without a model the window is the whole array.
func (f *Fences) Window(k core.Key) (lo, hi int) {
	n := len(f.keys)
	if f.model == nil {
		return 0, n
	}
	s := &f.model[segment.Locate(f.model, float64(k))]
	p := int(min(max(s.Predict(float64(k)), float64(s.StartIdx)), float64(s.EndIdx)))
	lo, hi = max(p-fenceEps-1-f.churn, 0), min(p+fenceEps+2+f.churn, n)
	return min(lo, hi), hi
}

// Find returns the slot of the page whose key range covers k: the last
// fence <= k, or 0 when k lies below every fence. The array must not be
// empty.
func (f *Fences) Find(k core.Key) int {
	var i int
	if f.model == nil {
		i = core.LowerBound(f.keys, k)
	} else {
		lo, hi := f.Window(k)
		i = core.SearchRange(f.keys, k, lo, hi)
		if (i > 0 && f.keys[i-1] >= k) || (i < len(f.keys) && f.keys[i] < k) {
			i = core.LowerBound(f.keys, k)
		}
	}
	if i < len(f.keys) && f.keys[i] == k {
		return i
	}
	return max(i-1, 0)
}

// fenceRouter is the paged-pgm's router: the fence index over the leaf
// chain and each fence's leaf id, both in memory and rebuilt from the
// chain at open. Slot 0's fence is pinned to 0 (conceptually -inf): keys
// below every later fence route there, and a split of slot 0 must never
// produce a separator below its own fence.
type fenceRouter struct {
	ix     *Index
	f      Fences
	leaves []uint64 // leaves[i] = page id of the leaf fenced by f.keys[i]
	slot   int      // the slot of the last seek
}

func (g *fenceRouter) leaf(k core.Key) (uint64, error) {
	if len(g.leaves) == 0 {
		return 0, nil
	}
	return g.leaves[g.f.Find(k)], nil
}

func (g *fenceRouter) seek(k core.Key) (uint64, error) {
	if len(g.leaves) == 0 {
		return 0, nil
	}
	g.slot = g.f.Find(k)
	return g.leaves[g.slot], nil
}

// retrain trains the model and emits EvRetrain when it built one.
func (g *fenceRouter) retrain() {
	g.f.train()
	if g.f.model != nil {
		g.ix.hook.Emit(obs.EvRetrain, len(g.f.model), "fences")
	}
}

// split adds the new leaf's fence after the sought slot. The model keeps
// predicting against the grown array within its churn-widened window until
// the next retrain.
func (g *fenceRouter) split(sep core.Key, right uint64) error {
	g.f.keys = slices.Insert(g.f.keys, g.slot+1, sep)
	g.leaves = slices.Insert(g.leaves, g.slot+1, right)
	g.f.churn++
	if g.f.stale() {
		g.retrain()
	}
	return nil
}

func (g *fenceRouter) pred() (uint64, error) {
	if g.slot == 0 {
		return 0, nil
	}
	return g.leaves[g.slot-1], nil
}

func (g *fenceRouter) drop() error {
	g.f.keys = slices.Delete(g.f.keys, g.slot, g.slot+1)
	g.leaves = slices.Delete(g.leaves, g.slot, g.slot+1)
	if len(g.f.keys) > 0 {
		g.f.keys[0] = 0 // slot 0 stays -inf
	}
	g.f.churn++
	if g.f.stale() {
		g.retrain()
	}
	return nil
}

func (g *fenceRouter) build(leaves []pageRef) error {
	g.f.keys, g.leaves = make([]core.Key, len(leaves)), make([]uint64, len(leaves))
	for i, l := range leaves {
		g.f.keys[i], g.leaves[i] = l.first, l.id
	}
	g.f.keys[0] = 0
	g.retrain()
	return nil
}

// open rebuilds the fences by walking the on-disk leaf chain. A leaf with
// no records inherits the previous fence: its lower bound is unknown, but
// routing only needs monotone fences.
func (g *fenceRouter) open(m Meta) error {
	var leaves []pageRef
	for id := m.Root; id != 0; {
		fr, err := g.ix.pool.Get(id)
		if err != nil {
			return err
		}
		p := fr.Page()
		typ, first, next := p.Type(), core.Key(0), p.Link()
		if p.Count() > 0 {
			first = p.LeafKey(0)
		} else if len(leaves) > 0 {
			first = leaves[len(leaves)-1].first
		}
		g.ix.pool.Unpin(fr, false)
		if typ != TypeLeaf {
			return fmt.Errorf("page: %s: leaf chain reaches page %d of type %d", g.ix.file.Path(), id, typ)
		}
		leaves = append(leaves, pageRef{first: first, id: id})
		id = next
	}
	if len(leaves) == 0 {
		return nil
	}
	return g.build(leaves)
}

func (g *fenceRouter) meta() (uint64, int) {
	if len(g.leaves) == 0 {
		return 0, 0
	}
	return g.leaves[0], 0
}

func (g *fenceRouter) stats(st *core.Stats, _ int) {
	if len(g.leaves) > 0 {
		st.Height = 2 // model level + leaf level
	}
	st.IndexBytes += 16*len(g.leaves) + segment.SegmentBytes*len(g.f.model)
	st.Models = len(g.f.model)
}

// bounds checks that the fences mirror the leaves and ascend, and gives
// leaf i the keys from its fence up to below the next greater fence.
func (g *fenceRouter) bounds() ([]leafBounds, error) {
	keys := g.f.keys
	if len(keys) != len(g.leaves) {
		return nil, fmt.Errorf("%s: %d fences vs %d leaves", KindPGM, len(keys), len(g.leaves))
	}
	out := make([]leafBounds, len(keys))
	for i := len(keys) - 1; i >= 0; i-- {
		out[i] = leafBounds{id: g.leaves[i], lo: keys[i], hi: ^core.Key(0)}
		if i+1 < len(keys) {
			if keys[i] > keys[i+1] {
				return nil, fmt.Errorf("%s: fences not monotone at %d", KindPGM, i+1)
			}
			if keys[i] < keys[i+1] {
				out[i].hi = keys[i+1] - 1
			} else {
				out[i].hi = out[i+1].hi
			}
		}
	}
	return out, nil
}
