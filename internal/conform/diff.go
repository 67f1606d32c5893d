package conform

import (
	"fmt"
	"io"
	"sort"
	"strings"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// closeIndex releases resources held by indexes that own files or
// goroutines (the durable factories); purely in-memory indexes do not
// implement io.Closer and are untouched. Replays build hundreds of
// instances while shrinking, so leaking file handles here would exhaust
// the process fd limit.
func closeIndex(ix any) {
	if c, ok := ix.(io.Closer); ok {
		c.Close()
	}
}

// DefaultCheckEvery is how many operations the engine replays between
// invariant-hook calls.
const DefaultCheckEvery = 500

// Divergence describes a disagreement between an index and the oracle: the
// factory and workload it occurred under, the first diverging operation,
// and a minimized initial record set + op sequence that still reproduces
// it (the output of greedy sequence shrinking).
type Divergence struct {
	Factory  string
	Workload string
	OpIndex  int    // index of the diverging op in the minimized sequence
	Detail   string // what disagreed
	// Exactly one of the following pairs is set.
	Init1D      []core.KV
	Ops1D       []Op
	InitSpatial []core.PV
	OpsSpatial  []SpatialOp
}

// String renders the divergence with its full reproduction recipe.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conform: %s diverged on workload %s at op %d: %s\n",
		d.Factory, d.Workload, d.OpIndex, d.Detail)
	if d.Ops1D != nil || d.Init1D != nil {
		fmt.Fprintf(&b, "minimized repro: %d initial records, %d ops\n", len(d.Init1D), len(d.Ops1D))
		for i, r := range d.Init1D {
			fmt.Fprintf(&b, "  init[%d] = {%d, %d}\n", i, r.Key, r.Value)
		}
		for i, op := range d.Ops1D {
			fmt.Fprintf(&b, "  op[%d] = %s\n", i, op)
		}
	} else {
		fmt.Fprintf(&b, "minimized repro: %d initial points, %d ops\n", len(d.InitSpatial), len(d.OpsSpatial))
		for i, pv := range d.InitSpatial {
			fmt.Fprintf(&b, "  init[%d] = {%v, %d}\n", i, pv.Point, pv.Value)
		}
		for i, op := range d.OpsSpatial {
			fmt.Fprintf(&b, "  op[%d] = %s\n", i, op)
		}
	}
	return b.String()
}

// Run1D replays w against a fresh instance of f and the sorted-slice
// oracle. On divergence it returns a report with a shrunk reproduction;
// nil means full agreement (including invariant checks every checkEvery
// ops, 0 selecting DefaultCheckEvery).
func Run1D(f Factory, w Workload1D, checkEvery int) *Divergence {
	if checkEvery <= 0 {
		checkEvery = DefaultCheckEvery
	}
	idx, detail := replay1D(f, w.Init, w.Ops, checkEvery)
	if idx == replayOK {
		return nil
	}
	init, ops := shrink1D(f, w.Init, w.Ops, checkEvery)
	idx2, detail2 := replay1D(f, init, ops, checkEvery)
	if idx2 == replayOK {
		// Shrinking lost the failure (flaky divergence would itself be a
		// finding); fall back to the unshrunk sequence.
		init, ops, idx2, detail2 = w.Init, w.Ops, idx, detail
	}
	return &Divergence{
		Factory: f.Name, Workload: w.Name,
		OpIndex: idx2, Detail: detail2,
		Init1D: init, Ops1D: ops,
	}
}

// replay outcomes: replayOK means no divergence; replayBuild means the
// builder itself failed (reported at op -1).
const (
	replayOK    = -1
	replayBuild = -2
)

// replay1D builds f over init and replays ops against index and oracle,
// returning the first diverging op index and a description (replayOK if
// none).
func replay1D(f Factory, init []core.KV, ops []Op, checkEvery int) (int, string) {
	ix, err := f.Build1D(init)
	if err != nil {
		return replayBuild, fmt.Sprintf("build failed: %v", err)
	}
	defer closeIndex(ix)
	o := newOracle1D(init)
	var mix MutableIndex
	if f.Caps.Mutable {
		m, ok := ix.(MutableIndex)
		if !ok {
			return replayBuild, "factory declares Mutable but index lacks Insert/Delete"
		}
		mix = m
	}
	if err := lix.CheckInvariants(ix); err != nil {
		return replayBuild, fmt.Sprintf("invariants after build: %v", err)
	}
	for i, op := range ops {
		if d := apply1D(ix, mix, o, op); d != "" {
			return i, d
		}
		if (i+1)%checkEvery == 0 {
			if err := lix.CheckInvariants(ix); err != nil {
				return i, fmt.Sprintf("invariants: %v", err)
			}
		}
	}
	if err := lix.CheckInvariants(ix); err != nil {
		return len(ops) - 1, fmt.Sprintf("invariants at end: %v", err)
	}
	return replayOK, ""
}

// apply1D runs one op on both sides and returns a non-empty description on
// disagreement.
func apply1D(ix Index, mix MutableIndex, o *oracle1D, op Op) string {
	switch op.Kind {
	case OpInsert:
		if mix == nil {
			return "Insert on immutable index"
		}
		mix.Insert(op.Key, op.Val)
		o.Insert(op.Key, op.Val)
	case OpDelete:
		if mix == nil {
			return "Delete on immutable index"
		}
		got := mix.Delete(op.Key)
		want := o.Delete(op.Key)
		if got != want {
			return fmt.Sprintf("%s = %v, oracle %v", op, got, want)
		}
	case OpGet:
		gv, gok := ix.Get(op.Key)
		wv, wok := o.Get(op.Key)
		if gok != wok || (gok && gv != wv) {
			return fmt.Sprintf("%s = (%d, %v), oracle (%d, %v)", op, gv, gok, wv, wok)
		}
	case OpRange:
		type kv struct {
			k core.Key
			v core.Value
		}
		var got, want []kv
		scan := func(target interface {
			Range(core.Key, core.Key, func(core.Key, core.Value) bool) int
		}, out *[]kv) int {
			return target.Range(op.Key, op.Hi, func(k core.Key, v core.Value) bool {
				*out = append(*out, kv{k, v})
				return op.Stop == 0 || len(*out) < op.Stop
			})
		}
		gn := scan(ix, &got)
		wn := scan(o, &want)
		if gn != wn {
			return fmt.Sprintf("%s visited %d, oracle %d", op, gn, wn)
		}
		if len(got) != len(want) {
			return fmt.Sprintf("%s yielded %d records, oracle %d", op, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("%s record %d = (%d, %d), oracle (%d, %d)",
					op, i, got[i].k, got[i].v, want[i].k, want[i].v)
			}
		}
	case OpLen:
		if g, w := ix.Len(), o.Len(); g != w {
			return fmt.Sprintf("Len() = %d, oracle %d", g, w)
		}
	}
	return ""
}

// shrink1D minimizes (init, ops) while replay still diverges: first the op
// sequence is truncated at the failure and greedily chunk-reduced (ddmin
// style, halving chunk sizes), then the initial record set is reduced the
// same way. The budget bounds total replays so shrinking stays fast even
// for slow builders.
func shrink1D(f Factory, init []core.KV, ops []Op, checkEvery int) ([]core.KV, []Op) {
	budget := 400
	origIdx, _ := replay1D(f, init, ops, checkEvery)
	fails := func(init []core.KV, ops []Op) bool {
		if budget <= 0 {
			return false
		}
		budget--
		idx, _ := replay1D(f, init, ops, checkEvery)
		// A candidate must fail the same way: if the original divergence was
		// semantic (an op disagreed), a candidate that merely fails to build
		// (e.g. init shrunk to empty against a builder that rejects empty
		// input) would mask the real bug.
		if origIdx != replayBuild && idx == replayBuild {
			return false
		}
		return idx != replayOK
	}
	// Truncate after the first failure.
	if origIdx >= 0 {
		ops = ops[:origIdx+1]
	}
	ops = shrinkSlice(ops, func(o []Op) bool { return fails(init, o) })
	init = shrinkSlice(init, func(in []core.KV) bool { return fails(in, ops) })
	return init, ops
}

// shrinkSlice greedily removes chunks of s (sizes n/2, n/4, ..., 1) while
// keep(s') stays true, returning the reduced slice.
func shrinkSlice[T any](s []T, keep func([]T) bool) []T {
	for chunk := (len(s) + 1) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start < len(s); {
			end := start + chunk
			if end > len(s) {
				end = len(s)
			}
			cand := make([]T, 0, len(s)-(end-start))
			cand = append(cand, s[:start]...)
			cand = append(cand, s[end:]...)
			if keep(cand) {
				s = cand
				// Do not advance: the next chunk shifted into place.
			} else {
				start += chunk
			}
		}
	}
	return s
}

// ---------------------------------------------------------------------------
// Spatial runner
// ---------------------------------------------------------------------------

// RunSpatial replays w against a fresh instance of f and the brute-force
// oracle; semantics mirror Run1D.
func RunSpatial(f Factory, w SpatialWorkload, checkEvery int) *Divergence {
	if checkEvery <= 0 {
		checkEvery = DefaultCheckEvery
	}
	idx, detail := replaySpatial(f, w.Init, w.Ops, checkEvery)
	if idx == replayOK {
		return nil
	}
	init, ops := shrinkSpatial(f, w.Init, w.Ops, checkEvery)
	idx2, detail2 := replaySpatial(f, init, ops, checkEvery)
	if idx2 == replayOK {
		init, ops, idx2, detail2 = w.Init, w.Ops, idx, detail
	}
	return &Divergence{
		Factory: f.Name, Workload: w.Name,
		OpIndex: idx2, Detail: detail2,
		InitSpatial: init, OpsSpatial: ops,
	}
}

func replaySpatial(f Factory, init []core.PV, ops []SpatialOp, checkEvery int) (int, string) {
	ix, err := f.BuildSpatial(init)
	if err != nil {
		return replayBuild, fmt.Sprintf("build failed: %v", err)
	}
	defer closeIndex(ix)
	o := newSpatialOracle(init)
	var mix MutableSpatialIndex
	if f.Caps.Mutable {
		m, ok := ix.(MutableSpatialIndex)
		if !ok {
			return replayBuild, "factory declares Mutable but index lacks Insert/Delete"
		}
		mix = m
	}
	var kix KNNIndex
	if f.Caps.KNN {
		k, ok := ix.(KNNIndex)
		if !ok {
			return replayBuild, "factory declares KNN but index lacks KNN"
		}
		kix = k
	}
	if err := lix.CheckInvariants(ix); err != nil {
		return replayBuild, fmt.Sprintf("invariants after build: %v", err)
	}
	for i, op := range ops {
		if d := applySpatial(ix, mix, kix, o, op); d != "" {
			return i, d
		}
		if (i+1)%checkEvery == 0 {
			if err := lix.CheckInvariants(ix); err != nil {
				return i, fmt.Sprintf("invariants: %v", err)
			}
		}
	}
	if err := lix.CheckInvariants(ix); err != nil {
		return len(ops) - 1, fmt.Sprintf("invariants at end: %v", err)
	}
	return replayOK, ""
}

func applySpatial(ix SpatialIndex, mix MutableSpatialIndex, kix KNNIndex, o *spatialOracle, op SpatialOp) string {
	switch op.Kind {
	case SOpInsert:
		if mix == nil {
			return "Insert on immutable spatial index"
		}
		if err := mix.Insert(op.P, op.Val); err != nil {
			return fmt.Sprintf("%s: %v", op, err)
		}
		o.Insert(op.P, op.Val)
	case SOpDelete:
		if mix == nil {
			return "Delete on immutable spatial index"
		}
		got := mix.Delete(op.P, op.Val)
		want := o.Delete(op.P, op.Val)
		if got != want {
			return fmt.Sprintf("%s = %v, oracle %v", op, got, want)
		}
	case SOpLookup:
		gv, gok := ix.Lookup(op.P)
		cands := o.LookupValues(op.P)
		if gok != (len(cands) > 0) {
			return fmt.Sprintf("%s found=%v, oracle has %d candidates", op, gok, len(cands))
		}
		if gok {
			found := false
			for _, c := range cands {
				if c == gv {
					found = true
					break
				}
			}
			if !found {
				return fmt.Sprintf("%s = %d, not among the oracle's stored values %v", op, gv, cands)
			}
		}
	case SOpSearch:
		want := o.SearchValues(op.Rect)
		var got []core.Value
		outOfRect := ""
		visited, _ := ix.Search(op.Rect, func(pv core.PV) bool {
			if !op.Rect.Contains(pv.Point) {
				outOfRect = fmt.Sprintf("%s visited point %v outside the rectangle", op, pv.Point)
				return false
			}
			got = append(got, pv.Value)
			return op.Stop == 0 || len(got) < op.Stop
		})
		if outOfRect != "" {
			return outOfRect
		}
		if visited != len(got) {
			return fmt.Sprintf("%s returned visited=%d but called fn %d times", op, visited, len(got))
		}
		if op.Stop == 0 {
			if !sameValueMultiset(got, want) {
				return fmt.Sprintf("%s visited %d values %v, oracle %d values %v",
					op, len(got), got, len(want), want)
			}
		} else {
			// Early stop: the visited records must be a sub-multiset of the
			// oracle's answer (traversal order is implementation-specific).
			if len(got) > len(want) || !subValueMultiset(got, want) {
				return fmt.Sprintf("%s early-stop visited %v, not contained in oracle %v", op, got, want)
			}
		}
	case SOpKNN:
		if kix == nil {
			return "KNN on non-KNN index"
		}
		res := kix.KNN(op.P, op.K)
		want := o.KNNDistSq(op.P, op.K)
		if len(res) != len(want) {
			return fmt.Sprintf("%s returned %d results, oracle %d", op, len(res), len(want))
		}
		got := make([]float64, len(res))
		for i, pv := range res {
			got[i] = op.P.DistSq(pv.Point)
			if i > 0 && got[i] < got[i-1] {
				return fmt.Sprintf("%s results not in ascending distance order at %d", op, i)
			}
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("%s distSq[%d] = %g, oracle %g", op, i, got[i], want[i])
			}
		}
	case SOpLen:
		if g, w := ix.Len(), o.Len(); g != w {
			return fmt.Sprintf("Len() = %d, oracle %d", g, w)
		}
	}
	return ""
}

// sameValueMultiset reports whether a and b hold the same values with the
// same multiplicities.
func sameValueMultiset(a, b []core.Value) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]core.Value(nil), a...)
	bs := append([]core.Value(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// subValueMultiset reports whether a is a sub-multiset of b.
func subValueMultiset(a, b []core.Value) bool {
	counts := make(map[core.Value]int, len(b))
	for _, v := range b {
		counts[v]++
	}
	for _, v := range a {
		if counts[v] == 0 {
			return false
		}
		counts[v]--
	}
	return true
}

func shrinkSpatial(f Factory, init []core.PV, ops []SpatialOp, checkEvery int) ([]core.PV, []SpatialOp) {
	budget := 400
	origIdx, _ := replaySpatial(f, init, ops, checkEvery)
	fails := func(init []core.PV, ops []SpatialOp) bool {
		if budget <= 0 {
			return false
		}
		budget--
		idx, _ := replaySpatial(f, init, ops, checkEvery)
		if origIdx != replayBuild && idx == replayBuild {
			return false // see shrink1D: don't morph into a build failure
		}
		return idx != replayOK
	}
	if origIdx >= 0 {
		ops = ops[:origIdx+1]
	}
	ops = shrinkSlice(ops, func(o []SpatialOp) bool { return fails(init, o) })
	init = shrinkSlice(init, func(in []core.PV) bool { return fails(in, ops) })
	return init, ops
}
