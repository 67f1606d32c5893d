package skiplist

import (
	"github.com/lix-go/lix/internal/core"
)

// Learned is an S3-style learned skip list (Zhang et al., "S3: A Scalable
// In-memory Skip-list Index", PVLDB 2019): the probabilistic towers are
// kept for maintenance, but lookups go through a periodically rebuilt
// *learned fast lane* — a sampled array of bottom-lane nodes with a linear
// model over their keys — and finish with a short bottom-lane walk.
//
// Taxonomy: mutable / hybrid (skip-list branch). Between rebuilds the fast
// lane tolerates inserts (walks get slightly longer) and deletions (lane
// entries whose nodes died are skipped); a mutation budget triggers the
// next rebuild.
type Learned struct {
	list   *List
	stride int
	// fast lane: keys[i] is the key of nodes[i], a sampled bottom node.
	keys  []core.Key
	nodes []*node
	// router: predict lane slot as slope*(key-base), corrected by a walk.
	slope, base float64
	mutations   int
	// LaneRebuilds counts fast-lane rebuilds (diagnostics).
	LaneRebuilds int
}

// DefaultStride is the default sampling interval of the fast lane.
const DefaultStride = 16

// NewLearned returns an empty learned skip list. stride is the fast-lane
// sampling interval (0 selects DefaultStride).
func NewLearned(seed uint64, stride int) *Learned {
	if stride <= 0 {
		stride = DefaultStride
	}
	return &Learned{list: New(seed), stride: stride}
}

// Len returns the number of records.
func (l *Learned) Len() int { return l.list.Len() }

// rebuildLane resamples every stride-th bottom node and refits the router.
func (l *Learned) rebuildLane() {
	l.keys = l.keys[:0]
	l.nodes = l.nodes[:0]
	i := 0
	for x := l.list.head.next[0]; x != nil; x = x.next[0] {
		if i%l.stride == 0 {
			l.keys = append(l.keys, x.key)
			l.nodes = append(l.nodes, x)
		}
		i++
	}
	n := len(l.keys)
	if n >= 2 {
		lo, hi := float64(l.keys[0]), float64(l.keys[n-1])
		l.base = lo
		if hi > lo {
			l.slope = float64(n-1) / (hi - lo)
		} else {
			l.slope = 0
		}
	} else {
		l.slope, l.base = 0, 0
	}
	l.mutations = 0
	l.LaneRebuilds++
}

// laneStart returns a live bottom node with key <= k to start walking
// from, or nil when the lane cannot help (empty, stale, or k precedes it).
func (l *Learned) laneStart(k core.Key) *node {
	n := len(l.keys)
	if n == 0 || k < l.keys[0] {
		return nil
	}
	// Model prediction corrected by exponential search: robust to skewed
	// key distributions where the linear router is far off.
	pred := core.Clamp(int(l.slope*(float64(k)-l.base)), 0, n-1)
	i := core.ExponentialSearch(l.keys, k, pred) // first lane key >= k
	if i >= n || l.keys[i] > k {
		i--
	}
	// Skip lane entries whose nodes were deleted since the last rebuild
	// (their forward pointers are frozen and must not be walked).
	for i >= 0 && l.nodes[i].deleted {
		i--
	}
	if i < 0 || l.keys[i] > k {
		return nil
	}
	return l.nodes[i]
}

// maybeRebuild triggers a lane rebuild after enough mutations.
func (l *Learned) maybeRebuild() {
	l.mutations++
	budget := l.list.Len() / 4
	if budget < 4*l.stride {
		budget = 4 * l.stride
	}
	if l.mutations >= budget {
		l.rebuildLane()
	}
}

// Get returns the value stored for k.
func (l *Learned) Get(k core.Key) (core.Value, bool) {
	start := l.laneStart(k)
	if start == nil {
		return l.list.Get(k)
	}
	for x := start; x != nil && x.key <= k; x = x.next[0] {
		if x.key == k {
			return x.val, true
		}
	}
	return 0, false
}

// Insert upserts (k, v).
func (l *Learned) Insert(k core.Key, v core.Value) {
	if l.list.insert(k, v) {
		l.maybeRebuild()
	}
}

// Delete removes k, returning true if present.
func (l *Learned) Delete(k core.Key) bool {
	ok := l.list.Delete(k)
	if ok {
		l.maybeRebuild()
	}
	return ok
}

// Range calls fn for records with lo <= key <= hi ascending; fn returning
// false stops. Returns records visited.
func (l *Learned) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	start := l.laneStart(lo)
	if start == nil {
		return l.list.Range(lo, hi, fn)
	}
	count := 0
	for x := start; x != nil && x.key <= hi; x = x.next[0] {
		if x.key < lo {
			continue
		}
		count++
		if !fn(x.key, x.val) {
			break
		}
	}
	return count
}

// Stats reports structure statistics including the fast lane.
func (l *Learned) Stats() core.Stats {
	st := l.list.Stats()
	st.Name = "learned-skiplist"
	st.IndexBytes += 16 * len(l.keys)
	st.Models = len(l.keys)
	return st
}
