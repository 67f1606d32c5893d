package conform

import (
	"math"

	"github.com/lix-go/lix/internal/core"
)

// CorpusCase1D is one edge-case record set applied to every registered 1-D
// factory. These are the inputs that have historically broken learned
// indexes: boundary keys, float64-colliding keys, constant-value runs, and
// single outliers that wreck global CDF models. The corpus replaces the
// ad-hoc per-package duplicates of these sets.
type CorpusCase1D struct {
	Name string
	Recs []core.KV // sorted ascending, distinct keys
}

// Corpus1D returns the shared 1-D edge-case corpus.
func Corpus1D() []CorpusCase1D {
	mk := func(keys ...core.Key) []core.KV {
		recs := make([]core.KV, len(keys))
		for i, k := range keys {
			recs[i] = core.KV{Key: k, Value: core.Value(i + 1)}
		}
		return recs
	}
	var cases []CorpusCase1D
	cases = append(cases,
		CorpusCase1D{Name: "empty", Recs: nil},
		CorpusCase1D{Name: "single", Recs: mk(12345)},
		CorpusCase1D{Name: "boundaries", Recs: mk(0, 1, 2, math.MaxUint64-2, math.MaxUint64-1, math.MaxUint64)},
	)
	// All records share one value: Range/Get must still distinguish by key.
	dup := make([]core.KV, 512)
	for i := range dup {
		dup[i] = core.KV{Key: core.Key(i) * 977, Value: 7}
	}
	cases = append(cases, CorpusCase1D{Name: "all-duplicate-values", Recs: dup})
	// Keys above 2^53 spaced by 1: collide at float64 resolution.
	fc := make([]core.Key, 3000)
	for i := range fc {
		fc[i] = core.Key(1)<<60 + core.Key(i)
	}
	cases = append(cases, CorpusCase1D{Name: "float-collide", Recs: kvFor(fc)})
	// Tiny then huge: one outlier dominates any linear fit.
	out := make([]core.Key, 0, 3001)
	for i := 0; i < 3000; i++ {
		out = append(out, core.Key(i))
	}
	out = append(out, core.Key(1)<<62)
	cases = append(cases, CorpusCase1D{Name: "outlier", Recs: kvFor(out)})
	// Two dense clusters at opposite ends of the key space.
	bi := make([]core.Key, 0, 3000)
	for i := 0; i < 1500; i++ {
		bi = append(bi, core.Key(i)*3)
	}
	for i := 0; i < 1500; i++ {
		bi = append(bi, core.Key(1)<<61+core.Key(i)*3)
	}
	cases = append(cases, CorpusCase1D{Name: "bimodal", Recs: kvFor(bi)})
	// Exponentially growing gaps.
	exp := make([]core.Key, 0, 60)
	k := core.Key(1)
	for i := 0; i < 60; i++ {
		exp = append(exp, k)
		k *= 2
	}
	cases = append(cases, CorpusCase1D{Name: "exponential", Recs: kvFor(exp)})
	return cases
}

func kvFor(keys []core.Key) []core.KV {
	recs := make([]core.KV, len(keys))
	for i, k := range keys {
		recs[i] = core.KV{Key: k, Value: core.Value(k*2654435761 + 1)}
	}
	return recs
}

// CorpusOps1D derives a deterministic read-heavy probe sequence for a
// corpus case: Get on every key and its ±1 neighbors, boundary-spanning
// ranges (with and without early stop), and Len.
func CorpusOps1D(recs []core.KV, mutable bool) []Op {
	var ops []Op
	for _, r := range recs {
		ops = append(ops, Op{Kind: OpGet, Key: r.Key})
		if r.Key > 0 {
			ops = append(ops, Op{Kind: OpGet, Key: r.Key - 1})
		}
		if r.Key < math.MaxUint64 {
			ops = append(ops, Op{Kind: OpGet, Key: r.Key + 1})
		}
	}
	ops = append(ops,
		Op{Kind: OpLen},
		Op{Kind: OpRange, Key: 0, Hi: math.MaxUint64},
		Op{Kind: OpRange, Key: 0, Hi: math.MaxUint64, Stop: 3},
	)
	if len(recs) > 0 {
		mid := recs[len(recs)/2].Key
		ops = append(ops,
			Op{Kind: OpRange, Key: recs[0].Key, Hi: mid},
			Op{Kind: OpRange, Key: mid, Hi: recs[len(recs)-1].Key, Stop: 5},
		)
	}
	if mutable {
		// Delete-then-reinsert over a prefix, the delta-buffer stress case.
		n := len(recs)
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			ops = append(ops, Op{Kind: OpDelete, Key: recs[i].Key})
		}
		ops = append(ops, Op{Kind: OpLen})
		for i := 0; i < n; i++ {
			ops = append(ops, Op{Kind: OpInsert, Key: recs[i].Key, Val: core.Value(i) + 9000})
			ops = append(ops, Op{Kind: OpGet, Key: recs[i].Key})
		}
		ops = append(ops, Op{Kind: OpLen}, Op{Kind: OpRange, Key: 0, Hi: math.MaxUint64})
	}
	return ops
}

// CorpusCaseSpatial is one edge-case point set applied to every registered
// spatial factory (2-D, the dimensionality every implementation supports).
type CorpusCaseSpatial struct {
	Name string
	Pts  []core.PV
}

// CorpusSpatial returns the shared spatial edge-case corpus.
func CorpusSpatial() []CorpusCaseSpatial {
	var cases []CorpusCaseSpatial
	cases = append(cases,
		CorpusCaseSpatial{Name: "empty", Pts: nil},
		CorpusCaseSpatial{Name: "single", Pts: []core.PV{{Point: core.Point{100, 100}, Value: 1}}},
		CorpusCaseSpatial{Name: "two-points", Pts: []core.PV{{Point: core.Point{10, 20}, Value: 1}, {Point: core.Point{30, 60}, Value: 2}}},
	)
	// A small irregular set: a grid index tunes a layout of a few cells.
	few := make([]core.PV, 63)
	for i := range few {
		few[i] = core.PV{Point: core.Point{float64(i*37%63) * 13, float64(i) * 5}, Value: core.Value(i)}
	}
	cases = append(cases, CorpusCaseSpatial{Name: "63-points", Pts: few})
	// Sorted along the diagonal, then the same points reversed: insertion
	// order must not matter.
	var sorted, reversed []core.PV
	for i := 0; i < 400; i++ {
		p := core.Point{float64(i) * 7, float64(i) * 7}
		sorted = append(sorted, core.PV{Point: p, Value: core.Value(i)})
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		reversed = append(reversed, sorted[i])
	}
	cases = append(cases,
		CorpusCaseSpatial{Name: "sorted-diagonal", Pts: sorted},
		CorpusCaseSpatial{Name: "reversed-diagonal", Pts: reversed},
	)
	// Every point identical: degenerate MBRs, zero-extent quantization.
	eq := make([]core.PV, 200)
	for i := range eq {
		eq[i] = core.PV{Point: core.Point{512, 512}, Value: core.Value(i)}
	}
	cases = append(cases, CorpusCaseSpatial{Name: "equal-points", Pts: eq})
	// One axis constant: zero extent in dimension 1.
	line := make([]core.PV, 300)
	for i := range line {
		line[i] = core.PV{Point: core.Point{float64(i) * 11, 777}, Value: core.Value(i)}
	}
	cases = append(cases, CorpusCaseSpatial{Name: "axis-line", Pts: line})
	// The other axis constant: zero extent in dimension 0.
	vline := make([]core.PV, 300)
	for i := range vline {
		vline[i] = core.PV{Point: core.Point{777, float64(i) * 11}, Value: core.Value(i)}
	}
	cases = append(cases, CorpusCaseSpatial{Name: "vertical-line", Pts: vline})
	return cases
}

// CorpusOpsSpatial derives a deterministic probe sequence for a spatial
// corpus case: Lookup on every point (and a shifted miss), containing and
// splitting rectangles, kNN at several k, and Len.
func CorpusOpsSpatial(pts []core.PV, mutable, knn bool) []SpatialOp {
	var ops []SpatialOp
	n := len(pts)
	probeCap := n
	if probeCap > 256 {
		probeCap = 256
	}
	for i := 0; i < probeCap; i++ {
		ops = append(ops, SpatialOp{Kind: SOpLookup, P: pts[i].Point})
		miss := pts[i].Point.Clone()
		miss[0] += 0.25
		ops = append(ops, SpatialOp{Kind: SOpLookup, P: miss})
	}
	world := core.Rect{Min: core.Point{-1e9, -1e9}, Max: core.Point{1e9, 1e9}}
	ops = append(ops,
		SpatialOp{Kind: SOpLen},
		SpatialOp{Kind: SOpSearch, Rect: world},
		SpatialOp{Kind: SOpSearch, Rect: world, Stop: 3},
		SpatialOp{Kind: SOpSearch, Rect: core.Rect{Min: core.Point{0, 0}, Max: core.Point{1000, 1000}}},
	)
	if knn {
		for _, k := range []int{1, 3, 17} {
			ops = append(ops, SpatialOp{Kind: SOpKNN, P: core.Point{500, 500}, K: k})
		}
	}
	if mutable && n > 0 {
		m := n
		if m > 48 {
			m = 48
		}
		for i := 0; i < m; i++ {
			ops = append(ops, SpatialOp{Kind: SOpDelete, P: pts[i].Point, Val: pts[i].Value})
		}
		ops = append(ops, SpatialOp{Kind: SOpLen}, SpatialOp{Kind: SOpSearch, Rect: world})
		for i := 0; i < m; i++ {
			ops = append(ops, SpatialOp{Kind: SOpInsert, P: pts[i].Point, Val: pts[i].Value + 5000})
		}
		ops = append(ops, SpatialOp{Kind: SOpLen}, SpatialOp{Kind: SOpSearch, Rect: world})
	}
	return ops
}
