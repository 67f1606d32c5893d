package core

// The index surfaces, declared once: the façade, the kind registry, the
// shard and durable layers and the conformance suite alias these.

// Index is a read-only one-dimensional ordered index.
type Index interface {
	// Get returns the value stored for k.
	Get(k Key) (Value, bool)
	// Range calls fn for every record with lo <= key <= hi in ascending
	// order; fn returning false stops the scan. It returns the number of
	// records visited.
	Range(lo, hi Key, fn func(Key, Value) bool) int
	// Len returns the number of records.
	Len() int
	// Stats reports structure statistics.
	Stats() Stats
}

// MutableIndex is an Index supporting upserts and deletes.
type MutableIndex interface {
	Index
	// Insert upserts (k, v).
	Insert(k Key, v Value)
	// Delete removes k, reporting whether it was present.
	Delete(k Key) bool
}

// SpatialIndex answers exact-point and rectangle queries over points.
type SpatialIndex interface {
	// Lookup returns the value of a stored point equal to p.
	Lookup(p Point) (Value, bool)
	// Search calls fn for every point inside rect; fn returning false
	// stops. It returns points visited and an implementation-specific
	// work counter (nodes, cells, or candidates touched — the I/O proxy).
	// The PV handed to fn may alias index memory: its Point is read-only,
	// valid for the life of an immutable index and until the next Insert
	// or Delete on a mutable one.
	Search(rect Rect, fn func(PV) bool) (visited, work int)
	// Len returns the number of points.
	Len() int
	// Stats reports structure statistics.
	Stats() Stats
}

// KNNIndex is a SpatialIndex that also answers k-nearest-neighbor queries.
type KNNIndex interface {
	SpatialIndex
	// KNN returns the k nearest points to q in ascending distance order.
	KNN(q Point, k int) []PV
}

// MutableSpatialIndex is a SpatialIndex supporting inserts and deletes.
type MutableSpatialIndex interface {
	SpatialIndex
	// Insert adds a copy of p: the caller's slice is free once it returns.
	Insert(p Point, v Value) error
	// Delete removes one stored point equal to p with matching value.
	Delete(p Point, v Value) bool
}
