// Package lix is a library of learned index structures for the one- and
// multi-dimensional spaces, reproducing the system landscape surveyed in
// "Learned Indexes From the One-dimensional to the Multi-dimensional
// Spaces: Challenges, Techniques, and Opportunities" (Al-Mamun, Wang,
// Aref — SIGMOD 2025 tutorial).
//
// The package exposes a uniform façade over the implementations in
// internal/: one-dimensional learned indexes (RMI, PGM, RadixSpline,
// Hist-Tree, ALEX, LIPP, FITing-tree, XIndex), their traditional baselines
// (B+-tree, skip list, sorted array), learned Bloom filters, and
// multi-dimensional indexes (ZM-index, ML-Index, Flood, LISA, Qd-tree,
// learned R-tree) with their baselines (R-tree, k-d tree, quadtree, grid).
//
// One-dimensional indexes map uint64 keys to uint64 values with map
// semantics (one value per key; inserts upsert). Multi-dimensional indexes
// store points with values and answer exact-point, axis-aligned-rectangle
// and k-nearest-neighbor queries.
package lix

import (
	"github.com/lix-go/lix/internal/alex"
	"github.com/lix-go/lix/internal/btree"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/fiting"
	"github.com/lix-go/lix/internal/histtree"
	"github.com/lix-go/lix/internal/lipp"
	"github.com/lix-go/lix/internal/pgm"
	"github.com/lix-go/lix/internal/radixspline"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/rmi"
	"github.com/lix-go/lix/internal/skiplist"
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

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

// sortedArray is the binary-search baseline.
type sortedArray struct {
	keys []Key
	recs []KV
}

// NewSortedArray returns the binary-search baseline over recs (sorted
// ascending by key). recs is retained.
func NewSortedArray(recs []KV) Index {
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

func (s *sortedArray) Stats() Stats {
	return Stats{Name: "binary-search", Count: len(s.keys), DataBytes: 16 * len(s.keys), Height: 1}
}

// NewBTree returns an empty B+-tree with the given order (0 selects the
// default).
func NewBTree(order int) MutableIndex {
	if order <= 0 {
		order = btree.DefaultOrder
	}
	return btree.New(order)
}

// BulkBTree bulk-loads a B+-tree from sorted records.
func BulkBTree(order int, recs []KV) (MutableIndex, error) {
	if order <= 0 {
		order = btree.DefaultOrder
	}
	t, err := btree.Bulk(order, recs)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// NewSkipList returns an empty skip list.
func NewSkipList(seed uint64) MutableIndex { return skiplist.New(seed) }

// NewLearnedSkipList returns an S3-style skip list with a learned fast
// lane (stride 0 selects the default sampling interval).
func NewLearnedSkipList(seed uint64, stride int) MutableIndex {
	return skiplist.NewLearned(seed, stride)
}

// ---------------------------------------------------------------------------
// Learned one-dimensional indexes
// ---------------------------------------------------------------------------

// NewRMI builds a Recursive Model Index over sorted records.
func NewRMI(recs []KV, cfg RMIConfig) (Index, error) { return rmi.Build(recs, cfg) }

// HybridRMI is the RMI variant with B-tree fallbacks for badly-fitting
// partitions; it exposes the learned/fallback split.
type HybridRMI = rmi.Hybrid

// NewHybridRMI builds a Hybrid-RMI: stage-2 models whose error window
// exceeds maxErr become B-trees.
func NewHybridRMI(recs []KV, cfg RMIConfig, maxErr int) (*HybridRMI, error) {
	return rmi.BuildHybrid(recs, cfg, maxErr)
}

// NewPGM builds a static PGM-index over sorted records with error bound
// eps (0 selects the default).
func NewPGM(recs []KV, eps int) (Index, error) { return pgm.Build(recs, eps) }

// PGMIndex re-exports the static PGM type for access to Epsilon, Levels
// and SegmentCount.
type PGMIndex = pgm.Index

// NewDynamicPGM returns an empty dynamic PGM-index.
func NewDynamicPGM(eps, bufCap int) MutableIndex { return pgm.NewDynamic(eps, bufCap) }

// NewRadixSpline builds a RadixSpline over sorted records.
func NewRadixSpline(recs []KV, eps, radixBits int) (Index, error) {
	return radixspline.Build(recs, eps, radixBits)
}

// NewHistTree builds a Hist-Tree over sorted records.
func NewHistTree(recs []KV, fanout, leafSize int) (Index, error) {
	return histtree.Build(recs, fanout, leafSize)
}

// NewALEX returns an empty ALEX index.
func NewALEX() MutableIndex { return alex.New() }

// BulkALEX bulk-loads an ALEX index from sorted records.
func BulkALEX(recs []KV) (MutableIndex, error) {
	ix, err := alex.Bulk(recs)
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// NewLIPP returns an empty LIPP index.
func NewLIPP() MutableIndex { return lipp.New() }

// BulkLIPP bulk-loads a LIPP index from sorted records.
func BulkLIPP(recs []KV) (MutableIndex, error) {
	ix, err := lipp.Bulk(recs)
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// NewFITingTree returns an empty FITing-tree.
func NewFITingTree(eps, bufCap int) MutableIndex { return fiting.New(eps, bufCap) }

// BulkFITingTree builds a FITing-tree from sorted records.
func BulkFITingTree(recs []KV, eps, bufCap int) (MutableIndex, error) {
	ix, err := fiting.Build(recs, eps, bufCap)
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// XIndex is the concurrent learned index; all methods are safe for
// concurrent use.
type XIndex = xindex.Index

// NewXIndex returns an empty concurrent learned index.
func NewXIndex(groupSize, deltaCap int) *XIndex { return xindex.New(groupSize, deltaCap) }

// BulkXIndex builds a concurrent learned index from sorted records.
func BulkXIndex(recs []KV, groupSize, deltaCap int) (*XIndex, error) {
	return xindex.Bulk(recs, groupSize, deltaCap)
}

// ---------------------------------------------------------------------------
// Building by kind name (see register.go and internal/registry)
// ---------------------------------------------------------------------------

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
