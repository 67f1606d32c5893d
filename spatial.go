package lix

import (
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/flood"
	"github.com/lix-go/lix/internal/grid"
	"github.com/lix-go/lix/internal/kdtree"
	"github.com/lix-go/lix/internal/lisa"
	"github.com/lix-go/lix/internal/mlindex"
	"github.com/lix-go/lix/internal/qdtree"
	"github.com/lix-go/lix/internal/quadtree"
	"github.com/lix-go/lix/internal/registry"
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
	// FloodIndex is a Flood index; use the concrete type for its layout.
	FloodIndex = flood.Index
)

// ZM curve kinds.
const (
	CurveZ       = zm.CurveZ
	CurveHilbert = zm.CurveHilbert
)

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

// BulkKDTree builds a balanced k-d tree over the points.
func BulkKDTree(pvs []PV) (KNNIndex, error) {
	t, err := kdtree.Build(pvs)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// --- quadtree ----------------------------------------------------------------

// NewQuadtree returns an empty PR quadtree over bounds (2-D only).
func NewQuadtree(bounds Rect, capacity int) (interface {
	MutableSpatialIndex
	KNNIndex
}, error) {
	t, err := quadtree.New(bounds, capacity)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// --- uniform grid --------------------------------------------------------------

// NewUniformGrid returns an empty uniform grid index over bounds.
func NewUniformGrid(bounds Rect, cells int) (interface {
	MutableSpatialIndex
	KNNIndex
}, error) {
	g, err := grid.New(bounds, cells)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// --- learned multi-dimensional indexes ------------------------------------------

// NewZMIndex builds a ZM-index (space-filling-curve projection + learned
// 1-D index).
func NewZMIndex(pvs []PV, cfg ZMConfig) (KNNIndex, error) { return zm.Build(pvs, cfg) }

// NewMLIndex builds an ML-Index (reference-point projection + learned 1-D
// index).
func NewMLIndex(pvs []PV, cfg MLIndexConfig) (KNNIndex, error) { return mlindex.Build(pvs, cfg) }

// NewFlood builds a Flood index with cfg's sort dimension and columns; with
// no Cols, the cost model picks the columns and the sort dimension on
// cfg.Queries, or on a query sample drawn from the data when that is empty
// (BuildSpatial("flood") is NewFlood(pvs, FloodConfig{})). Layout reports
// the layout built. The index also answers KNN (it satisfies KNNIndex).
func NewFlood(pvs []PV, cfg FloodConfig) (*FloodIndex, error) { return flood.Build(pvs, cfg) }

// NewLISA builds a LISA index over the points.
func NewLISA(pvs []PV, cfg LISAConfig) (interface {
	MutableSpatialIndex
	KNNIndex
}, error) {
	ix, err := lisa.Build(pvs, cfg)
	if err != nil {
		return nil, err
	}
	return ix, nil
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

// SpatialKinds lists the spatial index kinds that also answer KNN, in
// registration order.
func SpatialKinds() []string {
	var out []string
	for _, k := range registry.Kinds() {
		if k.Caps.KNN {
			out = append(out, k.Name)
		}
	}
	return out
}

// BuildSpatial builds a spatial index of any spatial kind registered in
// register.go over the points: through the kind's bulk builder when it has
// one, else an empty index of the points' dimension filled through Insert.
// Quadtree and grid cover the dataset extent ([0, 2^20) per dimension).
// The rtree, zm, zm-hilbert, mlindex, flood and lisa kinds copy the
// coordinates into their own store, and Insert copies; kdtree retains each
// pvs[i].Point, which the caller must not write to while the index is in
// use.
func BuildSpatial(kind string, pvs []PV) (SpatialIndex, error) {
	return registry.BuildSpatial(kind, pvs)
}
