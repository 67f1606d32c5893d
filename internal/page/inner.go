package page

import (
	"fmt"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// innerRouter is the paged-btree's router: inner pages of (separator,
// child) pairs above the leaf chain, the rightmost child in the header
// link, descended from the root one page per level.
type innerRouter struct {
	ix     *Index
	root   uint64 // 0 = empty
	height int    // inner levels above the leaves
	path   []routeStep
}

// routeStep records one inner page visited on a descent and the child slot
// taken there (slot == Count() means the rightmost link).
type routeStep struct {
	id   uint64
	slot int
}

func (b *innerRouter) leaf(k core.Key) (uint64, error) { return b.descend(k, false) }

func (b *innerRouter) seek(k core.Key) (uint64, error) { return b.descend(k, true) }

// descend routes from the root to the leaf owning k, recording the route
// in b.path when record is set.
func (b *innerRouter) descend(k core.Key, record bool) (uint64, error) {
	if record {
		b.path = b.path[:0]
	}
	id := b.root
	for lvl := b.height; lvl > 0; lvl-- {
		fr, err := b.ix.pool.Get(id)
		if err != nil {
			return 0, err
		}
		p := fr.Page()
		ci := p.innerSlot(k)
		if record {
			b.path = append(b.path, routeStep{id: id, slot: ci})
		}
		id = p.innerChild(ci)
		b.ix.pool.Unpin(fr, false)
	}
	return id, nil
}

// split stitches the new leaf into the parent on the route, splitting full
// inner pages upward and growing a new root when the old one splits.
func (b *innerRouter) split(sep core.Key, right uint64) error {
	for d := len(b.path) - 1; d >= 0; d-- {
		fr, err := b.ix.pool.Get(b.path[d].id)
		if err != nil {
			return err
		}
		p := fr.Page()
		ci := b.path[d].slot
		child := p.innerChild(ci)
		if n := p.Count(); n < InnerCap(len(p)) {
			if ci == n {
				// The split child was the rightmost link.
				p.InnerInsertAt(n, sep, child)
				p.SetLink(right)
			} else {
				oldSep := p.InnerKey(ci)
				p.InnerInsertAt(ci, sep, child)
				p.SetInnerEntry(ci+1, oldSep, right)
			}
			b.ix.pool.Unpin(fr, true)
			return nil
		}
		if sep, right, err = b.innerSplit(fr, p, ci, child, sep, right); err != nil {
			return err
		}
	}
	// The root split: grow the tree by one level.
	fr, err := b.ix.pool.Alloc(TypeInner)
	if err != nil {
		return err
	}
	p := fr.Page()
	p.InnerInsertAt(0, sep, b.root)
	p.SetLink(right)
	b.root = fr.ID()
	b.height++
	b.ix.pool.Unpin(fr, true)
	return nil
}

// innerSplit splits the full pinned inner page fr while inserting the
// child split (sep, right) at slot ci. It consumes the pin and returns the
// split to propagate upward.
func (b *innerRouter) innerSplit(fr *Frame, p Buf, ci int, child uint64, sep core.Key, right uint64) (core.Key, uint64, error) {
	// Materialize separators and children, apply the pending insertion,
	// then redistribute. Inner pages hold a few hundred entries at most,
	// so the copies are cheap and the code stays obviously correct.
	n := p.Count()
	keys := make([]core.Key, 0, n+1)
	childs := make([]uint64, 0, n+2)
	for j := 0; j < n; j++ {
		keys = append(keys, p.InnerKey(j))
		childs = append(childs, p.InnerChild(j))
	}
	childs = append(childs, p.Link())
	keys = append(keys, 0)
	copy(keys[ci+1:], keys[ci:])
	keys[ci] = sep
	childs = append(childs, 0)
	copy(childs[ci+2:], childs[ci+1:])
	childs[ci] = child
	childs[ci+1] = right

	mid := len(keys) / 2
	promo := keys[mid]

	rfr, err := b.ix.pool.Alloc(TypeInner)
	if err != nil {
		b.ix.pool.Unpin(fr, false)
		return 0, 0, err
	}
	rp := rfr.Page()
	for j := mid + 1; j < len(keys); j++ {
		rp.SetInnerEntry(j-mid-1, keys[j], childs[j])
	}
	rp.SetCount(len(keys) - mid - 1)
	rp.SetLink(childs[len(childs)-1])

	p.Reset(TypeInner, p.ID())
	for j := 0; j < mid; j++ {
		p.SetInnerEntry(j, keys[j], childs[j])
	}
	p.SetCount(mid)
	p.SetLink(childs[mid])

	b.ix.pool.Unpin(fr, true)
	b.ix.pool.Unpin(rfr, true)
	b.ix.hook.Emit(obs.EvNodeSplit, n+1, "inner")
	return promo, rfr.ID(), nil
}

// pred returns the rightmost leaf of the nearest left-sibling subtree
// along the route; the leftmost leaf has no predecessor.
func (b *innerRouter) pred() (uint64, error) {
	d := len(b.path) - 1
	for d >= 0 && b.path[d].slot == 0 {
		d--
	}
	if d < 0 {
		return 0, nil
	}
	fr, err := b.ix.pool.Get(b.path[d].id)
	if err != nil {
		return 0, err
	}
	id := fr.Page().InnerChild(b.path[d].slot - 1)
	b.ix.pool.Unpin(fr, false)
	// Descend rightmost (always the link) down to that subtree's leaf.
	for lvl := b.height - d - 1; lvl > 0; lvl-- {
		fr, err := b.ix.pool.Get(id)
		if err != nil {
			return 0, err
		}
		id = fr.Page().Link()
		b.ix.pool.Unpin(fr, false)
	}
	return id, nil
}

// drop removes the emptied leaf's routing entry from its parent. An inner
// page left childless is freed and the removal propagates upward; root
// pages left with a single child are collapsed.
func (b *innerRouter) drop() error {
	for d := len(b.path) - 1; d >= 0; d-- {
		id := b.path[d].id
		fr, err := b.ix.pool.Get(id)
		if err != nil {
			return err
		}
		p := fr.Page()
		n, ci := p.Count(), b.path[d].slot
		if n == 0 {
			// The dropped child was this page's only (link) child.
			b.ix.pool.Unpin(fr, false)
			if err := b.ix.pool.Free(id); err != nil {
				return err
			}
			continue
		}
		if ci == n {
			// The rightmost link: its left neighbor takes over as the link.
			p.SetLink(p.InnerChild(n - 1))
			p.InnerDeleteAt(n - 1)
		} else {
			// Dropping (separator, child) ci widens the next child's range
			// leftward; fine, the vacated range holds no records.
			p.InnerDeleteAt(ci)
		}
		b.ix.pool.Unpin(fr, true)
		return b.collapseRoot()
	}
	// Every page up to the root lost its last child: the index is empty.
	b.root, b.height = 0, 0
	return nil
}

// collapseRoot frees root pages left with only their link child, keeping
// the recorded height equal to the tree's real depth.
func (b *innerRouter) collapseRoot() error {
	for b.height > 0 {
		fr, err := b.ix.pool.Get(b.root)
		if err != nil {
			return err
		}
		p := fr.Page()
		child, only := p.Link(), p.Count() == 0
		b.ix.pool.Unpin(fr, false)
		if !only {
			return nil
		}
		if err := b.ix.pool.Free(b.root); err != nil {
			return err
		}
		b.root = child
		b.height--
	}
	return nil
}

// build stacks inner levels over the leaves, bottom-up: each page groups
// up to InnerCap+1 children; entry j is (first key of child j+1, child j),
// the rightmost child in the link.
func (b *innerRouter) build(level []pageRef) error {
	fan := InnerCap(b.ix.file.PageSize()) + 1
	height := 0
	for len(level) > 1 {
		var up []pageRef
		for off := 0; off < len(level); off += fan {
			end := min(off+fan, len(level))
			fr, err := b.ix.pool.Alloc(TypeInner)
			if err != nil {
				return err
			}
			p := fr.Page()
			for j := off; j < end-1; j++ {
				p.SetInnerEntry(j-off, level[j+1].first, level[j].id)
			}
			p.SetCount(end - off - 1)
			p.SetLink(level[end-1].id)
			up = append(up, pageRef{first: level[off].first, id: fr.ID()})
			b.ix.pool.Unpin(fr, true)
		}
		level = up
		height++
	}
	b.root, b.height = level[0].id, height
	return nil
}

func (b *innerRouter) open(m Meta) error {
	b.root, b.height = m.Root, m.Height
	return nil
}

func (b *innerRouter) meta() (uint64, int) { return b.root, b.height }

func (b *innerRouter) stats(st *core.Stats, pages int) {
	if b.root != 0 {
		st.Height = b.height + 1
	}
	st.Models = pages - 1 // tree pages (meta excluded)
}

// bounds walks the inner pages, checking their type and separator order,
// and gives each leaf the key range its separators assign it.
func (b *innerRouter) bounds() ([]leafBounds, error) {
	var out []leafBounds
	if b.root == 0 {
		return out, nil
	}
	return out, b.walk(b.root, b.height, 0, ^core.Key(0), &out)
}

// walk appends the leaves under page id, at the given level and owning
// keys [lo, hi], to out.
func (b *innerRouter) walk(id uint64, level int, lo, hi core.Key, out *[]leafBounds) error {
	if level == 0 {
		*out = append(*out, leafBounds{id: id, lo: lo, hi: hi})
		return nil
	}
	fr, err := b.ix.pool.Get(id)
	if err != nil {
		return err
	}
	p := fr.Page()
	n := p.Count()
	seps := make([]core.Key, n)
	childs := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		seps[i], childs[i] = p.InnerKey(i), p.InnerChild(i)
	}
	childs[n] = p.Link()
	typ := p.Type()
	b.ix.pool.Unpin(fr, false)
	if typ != TypeInner {
		return fmt.Errorf("%s: page %d at level %d has type %d", KindBTree, id, level, typ)
	}
	for i := 1; i < n; i++ {
		if seps[i-1] >= seps[i] {
			return fmt.Errorf("%s: inner %d separators not ascending at %d", KindBTree, id, i)
		}
	}
	for i := 0; i <= n; i++ {
		clo, chi := lo, hi
		if i > 0 {
			clo = seps[i-1]
		}
		if i < n {
			chi = seps[i] - 1 // children before separator s hold keys < s
		}
		if err := b.walk(childs[i], level-1, clo, chi, out); err != nil {
			return err
		}
	}
	return nil
}
