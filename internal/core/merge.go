package core

// maxStretch bounds the entries of one source MergeNewestFirst looks ahead
// at before handing them to visit: a range scan that stops early pays for
// at most that many, and the probes stay within a few cache lines.
const maxStretch = 64

// mergeHead is one source's cursor in MergeNewestFirst.
type mergeHead struct {
	key      Key // the key at pos, cached: a source is asked again only after it has moved
	src, pos int
}

// before orders cursors by head key, a tie going to the newer source.
func (h *mergeHead) before(o *mergeHead) bool {
	return h.key < o.key || h.key == o.key && h.src < o.src
}

// MergeNewestFirst is the one last-wins merge of the repository: the walk
// behind every delta-buffer index's compaction and range scan and the
// store's run compaction. Source s holds lens[s] entries in ascending key
// order, key(s, i) being the key of its i-th; sources are ordered newest
// first, and keys within one source are distinct. The walk takes keys in
// ascending order: each key is visited once, at its entry in the newest
// source holding it, and the entries of older sources for it are skipped.
// It hands entries to visit in stretches: visit(s, from, to) is entries
// [from, to) of source s, consecutive in the merged order, so a caller
// copies or filters a stretch in its own loop. What an entry means — a
// record to keep, a tombstone to drop or keep — is the caller's; visit
// returning false stops the walk.
func MergeNewestFirst(lens []int, key func(src, i int) Key, visit func(src, from, to int) bool) {
	// The cursors of the sources not yet run out, kept sorted by before:
	// the front is the next entry in (key, source) order, and a cursor that
	// moved sinks back into place past the few that now come before it.
	var small [8]mergeHead
	hs := small[:0]
	if len(lens) > len(small) {
		hs = make([]mergeHead, 0, len(lens))
	}
	for s, n := range lens {
		if n > 0 {
			hs = append(hs, mergeHead{key: key(s, 0), src: s})
			for i := len(hs) - 1; i > 0 && hs[i].before(&hs[i-1]); i-- {
				hs[i], hs[i-1] = hs[i-1], hs[i]
			}
		}
	}
	var last Key
	for visited := false; len(hs) > 0; {
		h := hs[0]
		end := lens[h.src]
		next, nextKey := h.pos+1, Key(0)
		if visited && h.key == last {
			// The head is an older source's entry for the first key of the
			// stretch just visited, the only key of it another source holds.
			if next < end {
				nextKey = key(h.src, next)
			}
		} else {
			// The front's stretch: its head, then every entry below the next
			// source's head, which no other source can hold.
			if len(hs) == 1 {
				next = end
			} else if next < end {
				next, nextKey = stretchEnd(h.src, next, end, hs[1].key, key)
			}
			if !visit(h.src, h.pos, next) {
				return
			}
			last, visited = h.key, true
		}
		if next == end {
			hs = hs[1:]
			continue
		}
		h.pos, h.key = next, nextKey
		i := 1
		for ; i < len(hs) && hs[i].before(&h); i++ {
			hs[i-1] = hs[i]
		}
		hs[i-1] = h
	}
}

// stretchEnd returns the first position p in [from, end) of source src
// whose key is at least bound — or end, or from+maxStretch if that comes
// first — and the key at p when p < end. Past a first probe, which is the
// answer when sources interleave, a doubling probe and a binary search
// find a stretch of n entries in O(log n) key calls.
func stretchEnd(src, from, end int, bound Key, key func(src, i int) Key) (int, Key) {
	hk := key(src, from) // the key at hi, once a probe has found it at least bound
	if hk >= bound {
		return from, hk
	}
	stop := min(end, from+maxStretch)
	lo, hi := from+1, from+1 // every entry before lo is below bound
	for step := 1; hi < stop; step *= 2 {
		if hk = key(src, hi); hk >= bound {
			break
		}
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, stop)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k := key(src, mid); k < bound {
			lo = mid + 1
		} else {
			hi, hk = mid, k
		}
	}
	if lo == stop && stop < end {
		hk = key(src, lo)
	}
	return lo, hk
}
