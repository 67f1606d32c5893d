package lix

import (
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/flood"
	"github.com/lix-go/lix/internal/qdtree"
	"github.com/lix-go/lix/internal/registry"
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
	// FloodConfig parameterizes Flood.
	FloodConfig = flood.Config
	// QdTreeConfig parameterizes the Qd-tree.
	QdTreeConfig = qdtree.Config
	// FloodIndex is a Flood index; use the concrete type for its layout.
	FloodIndex = flood.Index
)

// NewFlood builds a Flood index with cfg's sort dimension and columns; with
// no Cols, the cost model picks the columns and the sort dimension on
// cfg.Queries, or on a query sample drawn from the data when that is empty
// (BuildSpatial("flood") is NewFlood(pvs, FloodConfig{})). Layout reports
// the layout built. The index also answers KNN (it satisfies KNNIndex).
func NewFlood(pvs []PV, cfg FloodConfig) (*FloodIndex, error) { return flood.Build(pvs, cfg) }

// qdAdapter drops the qd-tree's third Search counter.
type qdAdapter struct{ *qdtree.Index }

func (a qdAdapter) Search(rect Rect, fn func(PV) bool) (int, int) {
	visited, _, scanned := a.Index.Search(rect, fn)
	return visited, scanned
}

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
