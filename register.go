package lix

import (
	"github.com/lix-go/lix/internal/btree"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/flood"
	"github.com/lix-go/lix/internal/registry"
)

// This file is the single source of truth for index kinds, 1-D and
// spatial: every kind the public façade builds by name is registered with
// internal/registry at init, and everything that builds by name —
// Build1D, BuildMutable1D and BuildSpatial, the sharded serving layer's
// bulk builders, the durable storage planner, the conformance suite's
// factory enumeration, the benchmark CLI — resolves kinds from the
// registry. Adding an index kind is one Register call here.

func init() {
	register1DKinds()
	registerSpatialKinds()
}

// register1DKinds registers the one-dimensional kinds. Registration
// order is enumeration order (StaticKinds/MutableKinds and the benchmark
// tables render in it), so it mirrors the historical kind lists.
func register1DKinds() {
	registry.Register(registry.Kind{
		Name: "binary",
		Caps: registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) {
			return NewSortedArray(recs), nil
		},
	})
	registry.Register(registry.Kind{
		Name:   "btree",
		Caps:   registry.Caps{Mutable: true, AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return BulkBTree(0, recs) },
		New:    func() (registry.MutableIndex, error) { return NewBTree(0), nil },
		Bulk:   func(recs []core.KV) (registry.MutableIndex, error) { return BulkBTree(0, recs) },
	})
	registry.Register(registry.Kind{
		Name: "btree-interp",
		Caps: registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) {
			t, err := btree.Bulk(btree.DefaultOrder, recs)
			if err != nil {
				return nil, err
			}
			t.SetInterpolation(true)
			return t, nil
		},
	})
	registry.Register(registry.Kind{
		Name:   "rmi",
		Caps:   registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return NewRMI(recs, RMIConfig{}) },
	})
	registry.Register(registry.Kind{
		Name:   "pgm",
		Caps:   registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return NewPGM(recs, 0) },
	})
	registry.Register(registry.Kind{
		Name:   "radixspline",
		Caps:   registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return NewRadixSpline(recs, 0, 0) },
	})
	registry.Register(registry.Kind{
		Name:   "histtree",
		Caps:   registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return NewHistTree(recs, 0, 0) },
	})
	registry.Register(registry.Kind{
		Name: "skiplist",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New:  func() (registry.MutableIndex, error) { return NewSkipList(1), nil },
	})
	registry.Register(registry.Kind{
		Name: "skiplist-learned",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New:  func() (registry.MutableIndex, error) { return NewLearnedSkipList(1, 0), nil },
	})
	registry.Register(registry.Kind{
		Name:   "alex",
		Caps:   registry.Caps{Mutable: true, AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return BulkALEX(recs) },
		New:    func() (registry.MutableIndex, error) { return NewALEX(), nil },
		Bulk:   func(recs []core.KV) (registry.MutableIndex, error) { return BulkALEX(recs) },
	})
	registry.Register(registry.Kind{
		Name:   "lipp",
		Caps:   registry.Caps{Mutable: true, AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return BulkLIPP(recs) },
		New:    func() (registry.MutableIndex, error) { return NewLIPP(), nil },
		Bulk:   func(recs []core.KV) (registry.MutableIndex, error) { return BulkLIPP(recs) },
	})
	registry.Register(registry.Kind{
		Name: "pgm-dynamic",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New:  func() (registry.MutableIndex, error) { return NewDynamicPGM(0, 0), nil },
	})
	registry.Register(registry.Kind{
		Name: "fiting",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New:  func() (registry.MutableIndex, error) { return NewFITingTree(0, 0), nil },
	})
	// The paged kinds are disk-resident: constructors back each instance
	// with a temporary page file removed on Close (the conformance suite
	// closes io.Closer indexes after every build).
	registry.Register(registry.Kind{
		Name: "paged-btree",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New: func() (registry.MutableIndex, error) {
			return NewTempPagedBTree(PagedOptions{})
		},
		Bulk: func(recs []core.KV) (registry.MutableIndex, error) {
			t, err := NewTempPagedBTree(PagedOptions{})
			if err != nil {
				return nil, err
			}
			if err := t.BulkLoad(recs); err != nil {
				t.Close()
				return nil, err
			}
			return t, nil
		},
	})
	registry.Register(registry.Kind{
		Name: "paged-pgm",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New: func() (registry.MutableIndex, error) {
			return NewTempPagedPGM(PagedOptions{})
		},
		Bulk: func(recs []core.KV) (registry.MutableIndex, error) {
			g, err := NewTempPagedPGM(PagedOptions{})
			if err != nil {
				return nil, err
			}
			if err := g.BulkLoad(recs); err != nil {
				g.Close()
				return nil, err
			}
			return g, nil
		},
	})
}

// spatialBounds is the dataset extent convention shared with the
// conformance suite's spatial workload generator.
func spatialBounds(dim int) core.Rect {
	min := make(core.Point, dim)
	max := make(core.Point, dim)
	for d := 0; d < dim; d++ {
		max[d] = dataset.Extent
	}
	return core.Rect{Min: min, Max: max}
}

// registerSpatialKinds registers the multi-dimensional kinds. The KNN
// kinds, in registration order, are SpatialKinds.
func registerSpatialKinds() {
	registry.Register(registry.Kind{
		Name: "rtree",
		Caps: registry.Caps{Mutable: true, Spatial: true, KNN: true, AllowsEmpty: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return BulkRTree(0, pvs)
		},
		SpatialNew: func(int) (registry.MutableSpatialIndex, error) {
			return NewRTree(0), nil
		},
	})
	registry.Register(registry.Kind{
		Name: "kdtree",
		Caps: registry.Caps{Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return BulkKDTree(pvs)
		},
	})
	registry.Register(registry.Kind{
		Name: "quadtree",
		Caps: registry.Caps{Mutable: true, Spatial: true, KNN: true, AllowsEmpty: true, Dims: 2},
		SpatialNew: func(dim int) (registry.MutableSpatialIndex, error) {
			return NewQuadtree(spatialBounds(dim), 0)
		},
	})
	registry.Register(registry.Kind{
		Name: "grid",
		Caps: registry.Caps{Mutable: true, Spatial: true, KNN: true, AllowsEmpty: true},
		SpatialNew: func(dim int) (registry.MutableSpatialIndex, error) {
			// Fewer cells per dimension in higher dimensions keep cells^dim
			// bounded.
			cells := 32
			switch {
			case dim >= 5:
				cells = 8
			case dim == 4:
				cells = 12
			case dim == 3:
				cells = 20
			}
			return NewUniformGrid(spatialBounds(dim), cells)
		},
	})
	registry.Register(registry.Kind{
		Name: "zm",
		Caps: registry.Caps{Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return NewZMIndex(pvs, ZMConfig{})
		},
	})
	registry.Register(registry.Kind{
		Name: "zm-hilbert",
		Caps: registry.Caps{Spatial: true, KNN: true, Dims: 2},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return NewZMIndex(pvs, ZMConfig{Curve: CurveHilbert})
		},
	})
	registry.Register(registry.Kind{
		Name: "mlindex",
		Caps: registry.Caps{Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return NewMLIndex(pvs, MLIndexConfig{})
		},
	})
	registry.Register(registry.Kind{
		Name: "flood",
		Caps: registry.Caps{Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return flood.Build(pvs, flood.Config{})
		},
	})
	registry.Register(registry.Kind{
		Name: "lisa",
		Caps: registry.Caps{Mutable: true, Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return NewLISA(pvs, LISAConfig{})
		},
	})
	registry.Register(registry.Kind{
		Name: "qdtree",
		Caps: registry.Caps{Spatial: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			pts := make([]core.Point, len(pvs))
			for i := range pvs {
				pts[i] = pvs[i].Point
			}
			queries := dataset.RectQueries(pts, 32, 0.001, 7)
			return NewQdTree(pvs, queries, QdTreeConfig{})
		},
	})
	registry.Register(registry.Kind{
		Name: "rtree-learned",
		Caps: registry.Caps{Spatial: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			h, err := NewLearnedRTree(0, 0, pvs)
			if err != nil {
				return nil, err
			}
			return h, nil
		},
	})
}
