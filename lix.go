// Package lix is a library of learned index structures for the one- and
// multi-dimensional spaces, reproducing the system landscape surveyed in
// "Learned Indexes From the One-dimensional to the Multi-dimensional
// Spaces: Challenges, Techniques, and Opportunities" (Al-Mamun, Wang,
// Aref — SIGMOD 2025 tutorial).
//
// The implementations live in internal/: one-dimensional learned indexes
// (RMI, PGM, RadixSpline, Hist-Tree, ALEX, LIPP, FITing-tree, XIndex),
// their traditional baselines (B+-tree, skip list, sorted array), learned
// Bloom filters, and multi-dimensional indexes (ZM-index, ML-Index, Flood,
// LISA, Qd-tree, learned R-tree) with their baselines (R-tree, k-d tree,
// quadtree, grid). Every index kind is built by name with its defaults:
// Build1D, BuildMutable1D and BuildSpatial, over the kinds that
// Static1DKinds, Mutable1DKinds and SpatialKinds list (register.go holds
// the table).
//
// One-dimensional indexes map uint64 keys to uint64 values with map
// semantics (one value per key; inserts upsert). Multi-dimensional indexes
// store points with values and answer exact-point, axis-aligned-rectangle
// and k-nearest-neighbor queries.
package lix

import (
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/pgm"
	"github.com/lix-go/lix/internal/radixspline"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/rmi"
	"github.com/lix-go/lix/internal/xindex"
)

// Core types, re-exported for the public API.
type (
	// Key is the one-dimensional key type (as in SOSD: unsigned 64-bit).
	Key = core.Key
	// Value is the payload type.
	Value = core.Value
	// KV is a key/value record.
	KV = core.KV
	// Stats reports index structure statistics.
	Stats = core.Stats
	// Op is one operation of a batch (Stack.Apply): OpGet, OpPut or OpDel
	// of a key.
	Op = core.Op
	// Index is a read-only one-dimensional ordered index: Get, Range, Len
	// and Stats.
	Index = core.Index
	// MutableIndex is an Index supporting upserts (Insert) and deletes
	// (Delete).
	MutableIndex = core.MutableIndex
)

// The kinds of Op.
const OpGet, OpPut, OpDel = core.OpGet, core.OpPut, core.OpDel

// RMIConfig re-exports the RMI build configuration.
type RMIConfig = rmi.Config

// RMI root model kinds.
const (
	RMIRootLinear    = rmi.RootLinear
	RMIRootQuadratic = rmi.RootQuadratic
	RMIRootCubic     = rmi.RootCubic
	RMIRootMLP       = rmi.RootMLP
)

// sortedArray is the binary-search baseline (the "binary" kind): a key
// column beside the records it retains.
type sortedArray struct {
	keys []Key
	recs []KV
}

func newSortedArray(recs []KV) *sortedArray {
	keys := make([]Key, len(recs))
	for i := range recs {
		keys[i] = recs[i].Key
	}
	return &sortedArray{keys: keys, recs: recs}
}

func (s *sortedArray) Get(k Key) (Value, bool) {
	i := core.LowerBound(s.keys, k)
	if i < len(s.keys) && s.keys[i] == k {
		return s.recs[i].Value, true
	}
	return 0, false
}

func (s *sortedArray) Range(lo, hi Key, fn func(Key, Value) bool) int {
	i := core.LowerBound(s.keys, lo)
	count := 0
	for ; i < len(s.keys) && s.keys[i] <= hi; i++ {
		count++
		if !fn(s.keys[i], s.recs[i].Value) {
			break
		}
	}
	return count
}

func (s *sortedArray) Len() int { return len(s.keys) }

// Stats counts the key column the search runs over as the index and the
// retained records as the data.
func (s *sortedArray) Stats() Stats {
	return Stats{Name: "binary-search", Count: len(s.keys), IndexBytes: 8 * len(s.keys), DataBytes: 16 * len(s.keys), Height: 1}
}

// NewRMI builds a Recursive Model Index over sorted records.
func NewRMI(recs []KV, cfg RMIConfig) (Index, error) { return rmi.Build(recs, cfg) }

// NewPGM builds a static PGM-index over sorted records with error bound
// eps (0 selects the default).
func NewPGM(recs []KV, eps int) (Index, error) { return pgm.Build(recs, eps) }

// NewRadixSpline builds a RadixSpline over sorted records.
func NewRadixSpline(recs []KV, eps, radixBits int) (Index, error) {
	return radixspline.Build(recs, eps, radixBits)
}

// XIndex is the concurrent learned index; all methods are safe for
// concurrent use.
type XIndex = xindex.Index

// BulkXIndex builds a concurrent learned index from sorted records
// (0 selects the default group size and delta capacity).
func BulkXIndex(recs []KV, groupSize, deltaCap int) (*XIndex, error) {
	return xindex.Bulk(recs, groupSize, deltaCap)
}

// Static1DKinds lists the read-only 1-D index names accepted by Build1D.
func Static1DKinds() []string { return registry.StaticKinds() }

// Mutable1DKinds lists the updatable 1-D index names accepted by
// BuildMutable1D.
func Mutable1DKinds() []string { return registry.MutableKinds() }

// Build1D builds a read-only 1-D index of the named kind over sorted recs.
func Build1D(kind string, recs []KV) (Index, error) {
	k, err := registry.Static(kind)
	if err != nil {
		return nil, err
	}
	return k.Static(recs)
}

// BuildMutable1D returns an empty updatable 1-D index of the named kind.
func BuildMutable1D(kind string) (MutableIndex, error) {
	k, err := registry.Mutable(kind)
	if err != nil {
		return nil, err
	}
	return k.New()
}
