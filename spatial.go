package lix

import (
	"fmt"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/flood"
	"github.com/lix-go/lix/internal/grid"
	"github.com/lix-go/lix/internal/kdtree"
	"github.com/lix-go/lix/internal/lisa"
	"github.com/lix-go/lix/internal/mlindex"
	"github.com/lix-go/lix/internal/qdtree"
	"github.com/lix-go/lix/internal/quadtree"
	"github.com/lix-go/lix/internal/rtree"
	"github.com/lix-go/lix/internal/zm"
)

// Spatial types, re-exported for the public API.
type (
	// Point is a point in d-dimensional space.
	Point = core.Point
	// Rect is an axis-aligned rectangle with inclusive bounds.
	Rect = core.Rect
	// PV is a point/value record.
	PV = core.PV
	// SpatialIndex answers exact-point (Lookup) and rectangle (Search)
	// queries over points.
	SpatialIndex = core.SpatialIndex
	// KNNIndex is a SpatialIndex that also answers k-nearest-neighbor
	// queries (KNN).
	KNNIndex = core.KNNIndex
	// MutableSpatialIndex is a SpatialIndex supporting inserts and deletes.
	MutableSpatialIndex = core.MutableSpatialIndex
)

// NewRect builds a validated rectangle.
func NewRect(min, max Point) (Rect, error) { return core.NewRect(min, max) }

// Spatial config re-exports.
type (
	// ZMConfig parameterizes the ZM-index.
	ZMConfig = zm.Config
	// MLIndexConfig parameterizes the ML-Index.
	MLIndexConfig = mlindex.Config
	// FloodConfig parameterizes Flood.
	FloodConfig = flood.Config
	// LISAConfig parameterizes LISA.
	LISAConfig = lisa.Config
	// QdTreeConfig parameterizes the Qd-tree.
	QdTreeConfig = qdtree.Config
	// FloodTuneResult reports Flood's layout tuning outcome.
	FloodTuneResult = flood.TuneResult
)

// ZM curve kinds.
const (
	CurveZ       = zm.CurveZ
	CurveHilbert = zm.CurveHilbert
)

// lookupViaSearch implements exact-point lookup with a degenerate
// rectangle search, for spatial structures without a native point API.
func lookupViaSearch(s interface {
	Search(Rect, func(PV) bool) (int, int)
}, p Point) (Value, bool) {
	var out Value
	found := false
	// No Search mutates its rectangle, so both corners can be p itself.
	s.Search(Rect{Min: p, Max: p}, func(pv PV) bool {
		if pv.Point.Equal(p) {
			out, found = pv.Value, true
			return false
		}
		return true
	})
	return out, found
}

// --- R-tree ---------------------------------------------------------------

// NewRTree returns an empty R-tree with the given node capacity (0 selects
// the default).
func NewRTree(maxEntries int) interface {
	MutableSpatialIndex
	KNNIndex
} {
	return rtree.New(maxEntries)
}

// BulkRTree bulk-loads an R-tree with Sort-Tile-Recursive packing.
func BulkRTree(maxEntries int, pvs []PV) (interface {
	MutableSpatialIndex
	KNNIndex
}, error) {
	t, err := rtree.BulkSTR(maxEntries, pvs)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// LearnedRTree is the ML-enhanced R-tree (AI+R style).
type LearnedRTree = rtree.Hybrid

// NewLearnedRTree bulk-loads an R-tree and attaches the learned
// leaf-prediction model.
func NewLearnedRTree(maxEntries, cells int, pvs []PV) (*LearnedRTree, error) {
	t, err := rtree.BulkSTR(maxEntries, pvs)
	if err != nil {
		return nil, err
	}
	return rtree.NewHybrid(t, cells)
}

// --- k-d tree ---------------------------------------------------------------

type kdAdapter struct{ *kdtree.Tree }

func (a kdAdapter) Lookup(p Point) (Value, bool) { return lookupViaSearch(a.Tree, p) }

// BulkKDTree builds a balanced k-d tree over the points.
func BulkKDTree(pvs []PV) (KNNIndex, error) {
	t, err := kdtree.Build(pvs)
	if err != nil {
		return nil, err
	}
	return kdAdapter{t}, nil
}

// --- quadtree ----------------------------------------------------------------

type quadAdapter struct{ *quadtree.Tree }

func (a quadAdapter) Lookup(p Point) (Value, bool) { return lookupViaSearch(a.Tree, p) }

// NewQuadtree returns an empty PR quadtree over bounds (2-D only).
func NewQuadtree(bounds Rect, capacity int) (interface {
	MutableSpatialIndex
	KNNIndex
}, error) {
	t, err := quadtree.New(bounds, capacity)
	if err != nil {
		return nil, err
	}
	return quadAdapter{t}, nil
}

// --- uniform grid --------------------------------------------------------------

type gridAdapter struct{ *grid.Grid }

func (a gridAdapter) Lookup(p Point) (Value, bool) { return lookupViaSearch(a.Grid, p) }

// NewUniformGrid returns an empty uniform grid index over bounds.
func NewUniformGrid(bounds Rect, cells int) (interface {
	MutableSpatialIndex
	KNNIndex
}, error) {
	g, err := grid.New(bounds, cells)
	if err != nil {
		return nil, err
	}
	return gridAdapter{g}, nil
}

// --- learned multi-dimensional indexes ------------------------------------------

// NewZMIndex builds a ZM-index (space-filling-curve projection + learned
// 1-D index).
func NewZMIndex(pvs []PV, cfg ZMConfig) (KNNIndex, error) { return zm.Build(pvs, cfg) }

// NewMLIndex builds an ML-Index (reference-point projection + learned 1-D
// index).
func NewMLIndex(pvs []PV, cfg MLIndexConfig) (KNNIndex, error) { return mlindex.Build(pvs, cfg) }

// NewFlood builds a Flood index with cfg's sort dimension and columns; with
// no Cols, the cost model picks the columns on a query sample drawn from the
// data. The index also answers KNN (it satisfies KNNIndex).
func NewFlood(pvs []PV, cfg FloodConfig) (SpatialIndex, error) { return flood.Build(pvs, cfg) }

// NewFloodTuned tunes Flood's layout, sort dimension included, on a sample
// workload, or on a sample drawn from the data when queries is empty, and
// builds it. BuildSpatial("flood") is NewFloodTuned(pvs, nil, 0).
func NewFloodTuned(pvs []PV, queries []Rect, maxCells int) (SpatialIndex, FloodTuneResult, error) {
	ix, res, err := flood.BuildTuned(pvs, queries, maxCells)
	return ix, res, err
}

// lisaAdapter satisfies MutableSpatialIndex and KNNIndex.
type lisaAdapter struct{ *lisa.Index }

// NewLISA builds a LISA index over the points.
func NewLISA(pvs []PV, cfg LISAConfig) (interface {
	MutableSpatialIndex
	KNNIndex
}, error) {
	ix, err := lisa.Build(pvs, cfg)
	if err != nil {
		return nil, err
	}
	return lisaAdapter{ix}, nil
}

// qdAdapter drops the qd-tree's third Search counter.
type qdAdapter struct{ *qdtree.Index }

func (a qdAdapter) Search(rect Rect, fn func(PV) bool) (int, int) {
	visited, _, scanned := a.Index.Search(rect, fn)
	return visited, scanned
}

// QdTree is the workload-driven partition tree; use the concrete type for
// block-level metrics.
type QdTree = qdtree.Index

// NewQdTree builds a Qd-tree over the points for the sample workload.
func NewQdTree(pvs []PV, queries []Rect, cfg QdTreeConfig) (SpatialIndex, error) {
	ix, err := qdtree.Build(pvs, queries, cfg)
	if err != nil {
		return nil, err
	}
	return qdAdapter{ix}, nil
}

// SpatialKinds lists the spatial index names accepted by BuildSpatial.
func SpatialKinds() []string {
	return []string{"rtree", "kdtree", "quadtree", "grid", "zm", "zm-hilbert", "mlindex", "flood", "lisa"}
}

// BuildSpatial builds a spatial index of the named kind over the points.
// Quadtree and grid derive their bounds from the dataset extent convention
// ([0, 2^20) per dimension). The rtree, zm, zm-hilbert, mlindex, flood and
// lisa kinds copy the coordinates into their own store, and quadtree and
// grid are filled through Insert, which copies; kdtree retains each
// pvs[i].Point, which the caller must not write to while the index is in
// use.
func BuildSpatial(kind string, pvs []PV) (SpatialIndex, error) {
	switch kind {
	case "rtree":
		return BulkRTree(0, pvs)
	case "kdtree":
		return BulkKDTree(pvs)
	case "quadtree":
		q, err := NewQuadtree(worldBounds(2), 0)
		if err != nil {
			return nil, err
		}
		for _, pv := range pvs {
			if err := q.Insert(pv.Point, pv.Value); err != nil {
				return nil, err
			}
		}
		return q, nil
	case "grid":
		dim := 2
		if len(pvs) > 0 {
			dim = pvs[0].Point.Dim()
		}
		// Keep cells^dim bounded as dimensionality grows.
		cells := 32
		switch {
		case dim >= 5:
			cells = 8
		case dim >= 4:
			cells = 12
		case dim == 3:
			cells = 20
		}
		g, err := NewUniformGrid(worldBounds(dim), cells)
		if err != nil {
			return nil, err
		}
		for _, pv := range pvs {
			if err := g.Insert(pv.Point, pv.Value); err != nil {
				return nil, err
			}
		}
		return g, nil
	case "zm":
		return NewZMIndex(pvs, ZMConfig{})
	case "zm-hilbert":
		return NewZMIndex(pvs, ZMConfig{Curve: CurveHilbert})
	case "mlindex":
		return NewMLIndex(pvs, MLIndexConfig{})
	case "flood":
		ix, _, err := NewFloodTuned(pvs, nil, 0)
		return ix, err
	case "lisa":
		return NewLISA(pvs, LISAConfig{})
	default:
		return nil, fmt.Errorf("lix: unknown spatial index kind %q", kind)
	}
}

// worldBounds returns the dataset extent convention used by the synthetic
// spatial generators.
func worldBounds(dim int) Rect {
	min := make(Point, dim)
	max := make(Point, dim)
	for d := 0; d < dim; d++ {
		max[d] = 1 << 20
	}
	return Rect{Min: min, Max: max}
}
