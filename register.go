package lix

import (
	"github.com/lix-go/lix/internal/alex"
	"github.com/lix-go/lix/internal/btree"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/fiting"
	"github.com/lix-go/lix/internal/flood"
	"github.com/lix-go/lix/internal/grid"
	"github.com/lix-go/lix/internal/histtree"
	"github.com/lix-go/lix/internal/kdtree"
	"github.com/lix-go/lix/internal/lipp"
	"github.com/lix-go/lix/internal/lisa"
	"github.com/lix-go/lix/internal/mlindex"
	"github.com/lix-go/lix/internal/page"
	"github.com/lix-go/lix/internal/pgm"
	"github.com/lix-go/lix/internal/quadtree"
	"github.com/lix-go/lix/internal/radixspline"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/rmi"
	"github.com/lix-go/lix/internal/rtree"
	"github.com/lix-go/lix/internal/skiplist"
	"github.com/lix-go/lix/internal/zm"
)

// This file is the single source of truth for index kinds, 1-D and
// spatial: each kind is registered with internal/registry at init, with
// its constructors calling the kind's own internal package at the kind's
// defaults. Everything that builds by name resolves kinds from the
// registry: Build1D, BuildMutable1D and BuildSpatial, the sharded serving
// layer's bulk builders, the durable storage planner, the conformance
// suite's factory enumeration and the benchmark CLI. Adding an index kind
// is one Register call here.

func init() {
	register1DKinds()
	registerSpatialKinds()
}

// The constructors return a nil interface with an error, never an
// interface holding a nil pointer; these adapt an internal constructor's
// (*T, error) to the surface its registry slot declares.
func index[T registry.Index](ix T, err error) (registry.Index, error) {
	if err != nil {
		return nil, err
	}
	return ix, nil
}

func mutable[T registry.MutableIndex](ix T, err error) (registry.MutableIndex, error) {
	if err != nil {
		return nil, err
	}
	return ix, nil
}

func spatial[T registry.SpatialIndex](ix T, err error) (registry.SpatialIndex, error) {
	if err != nil {
		return nil, err
	}
	return ix, nil
}

func mutableSpatial[T registry.MutableSpatialIndex](ix T, err error) (registry.MutableSpatialIndex, error) {
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// register1DKinds registers the one-dimensional kinds. Registration
// order is enumeration order (StaticKinds/MutableKinds and the benchmark
// tables render in it), so it mirrors the historical kind lists.
func register1DKinds() {
	registry.Register(registry.Kind{
		Name: "binary",
		Caps: registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) {
			return newSortedArray(recs), nil
		},
	})
	registry.Register(registry.Kind{
		Name:   "btree",
		Caps:   registry.Caps{Mutable: true, AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return mutable(btree.Bulk(btree.DefaultOrder, recs)) },
		New:    func() (registry.MutableIndex, error) { return btree.NewDefault(), nil },
		Bulk: func(recs []core.KV) (registry.MutableIndex, error) {
			return mutable(btree.Bulk(btree.DefaultOrder, recs))
		},
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
		Static: func(recs []core.KV) (registry.Index, error) { return index(rmi.Build(recs, rmi.Config{})) },
	})
	registry.Register(registry.Kind{
		Name:   "pgm",
		Caps:   registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return index(pgm.Build(recs, 0)) },
	})
	registry.Register(registry.Kind{
		Name:   "radixspline",
		Caps:   registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return index(radixspline.Build(recs, 0, 0)) },
	})
	registry.Register(registry.Kind{
		Name:   "histtree",
		Caps:   registry.Caps{AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return index(histtree.Build(recs, 0, 0)) },
	})
	registry.Register(registry.Kind{
		Name: "skiplist",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New:  func() (registry.MutableIndex, error) { return skiplist.New(1), nil },
	})
	registry.Register(registry.Kind{
		Name: "skiplist-learned",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New:  func() (registry.MutableIndex, error) { return skiplist.NewLearned(1, 0), nil },
	})
	registry.Register(registry.Kind{
		Name:   "alex",
		Caps:   registry.Caps{Mutable: true, AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return mutable(alex.Bulk(recs)) },
		New:    func() (registry.MutableIndex, error) { return alex.New(), nil },
		Bulk:   func(recs []core.KV) (registry.MutableIndex, error) { return mutable(alex.Bulk(recs)) },
	})
	registry.Register(registry.Kind{
		Name:   "lipp",
		Caps:   registry.Caps{Mutable: true, AllowsEmpty: true},
		Static: func(recs []core.KV) (registry.Index, error) { return mutable(lipp.Bulk(recs)) },
		New:    func() (registry.MutableIndex, error) { return lipp.New(), nil },
		Bulk:   func(recs []core.KV) (registry.MutableIndex, error) { return mutable(lipp.Bulk(recs)) },
	})
	registry.Register(registry.Kind{
		Name: "pgm-dynamic",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New:  func() (registry.MutableIndex, error) { return pgm.NewDynamic(0, 0), nil },
	})
	registry.Register(registry.Kind{
		Name: "fiting",
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New:  func() (registry.MutableIndex, error) { return fiting.New(0, 0), nil },
		Bulk: func(recs []core.KV) (registry.MutableIndex, error) { return mutable(fiting.Build(recs, 0, 0)) },
	})
	// The paged kinds are the disk-resident tier (internal/page, DESIGN.md
	// §9): sorted records in a chain of fixed-size CRC-framed leaf pages
	// behind a CLOCK buffer pool, reached through disk-resident inner pages
	// (paged-btree) or an in-memory learned model over the leaf fence keys
	// (paged-pgm). Each instance is backed by a temporary page file removed
	// on Close (the conformance suite closes io.Closer indexes after every
	// build).
	registerPaged("paged-btree", page.KindBTree)
	registerPaged("paged-pgm", page.KindPGM)
}

// registerPaged registers a paged kind at the default page size and
// buffer-pool budget.
func registerPaged(name, kind string) {
	registry.Register(registry.Kind{
		Name: name,
		Caps: registry.Caps{Mutable: true, AllowsEmpty: true},
		New: func() (registry.MutableIndex, error) {
			return mutable(page.NewTempIndex(kind, page.Options{}))
		},
		Bulk: func(recs []core.KV) (registry.MutableIndex, error) {
			ix, err := page.NewTempIndex(kind, page.Options{})
			if err != nil {
				return nil, err
			}
			if err := ix.BulkLoad(recs); err != nil {
				ix.Close()
				return nil, err
			}
			return ix, nil
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
			return spatial(rtree.BulkSTR(0, pvs))
		},
		SpatialNew: func(int) (registry.MutableSpatialIndex, error) {
			return rtree.New(0), nil
		},
	})
	registry.Register(registry.Kind{
		Name: "kdtree",
		Caps: registry.Caps{Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return spatial(kdtree.Build(pvs))
		},
	})
	registry.Register(registry.Kind{
		Name: "quadtree",
		Caps: registry.Caps{Mutable: true, Spatial: true, KNN: true, AllowsEmpty: true, Dims: 2},
		SpatialNew: func(dim int) (registry.MutableSpatialIndex, error) {
			return mutableSpatial(quadtree.New(spatialBounds(dim), 0))
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
			return mutableSpatial(grid.New(spatialBounds(dim), cells))
		},
	})
	registry.Register(registry.Kind{
		Name: "zm",
		Caps: registry.Caps{Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return spatial(zm.Build(pvs, zm.Config{}))
		},
	})
	registry.Register(registry.Kind{
		Name: "zm-hilbert",
		Caps: registry.Caps{Spatial: true, KNN: true, Dims: 2},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return spatial(zm.Build(pvs, zm.Config{Curve: zm.CurveHilbert}))
		},
	})
	registry.Register(registry.Kind{
		Name: "mlindex",
		Caps: registry.Caps{Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return spatial(mlindex.Build(pvs, mlindex.Config{}))
		},
	})
	registry.Register(registry.Kind{
		Name: "flood",
		Caps: registry.Caps{Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return spatial(flood.Build(pvs, flood.Config{}))
		},
	})
	registry.Register(registry.Kind{
		Name: "lisa",
		Caps: registry.Caps{Mutable: true, Spatial: true, KNN: true},
		SpatialBulk: func(pvs []core.PV) (registry.SpatialIndex, error) {
			return spatial(lisa.Build(pvs, lisa.Config{}))
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
			t, err := rtree.BulkSTR(0, pvs)
			if err != nil {
				return nil, err
			}
			return spatial(rtree.NewHybrid(t, 0))
		},
	})
}
