// Package registry is the single kind registry of the lix library: one
// table mapping an index-kind name to its constructors and capability
// flags. The public façade registers every kind at init (see the
// façade's register.go); the façade's Build1D, BuildMutable1D and
// BuildSpatial, the sharded serving layer, the durable storage planner,
// the conformance suite and the benchmark CLI all resolve kinds here
// instead of keeping their own switch statements.
//
// The registry deliberately depends only on internal/core, where the index
// surfaces it names are declared.
package registry

import (
	"fmt"
	"sort"

	"github.com/lix-go/lix/internal/core"
)

// The index surfaces the constructors return.
type (
	Index               = core.Index
	MutableIndex        = core.MutableIndex
	SpatialIndex        = core.SpatialIndex
	MutableSpatialIndex = core.MutableSpatialIndex
)

// Caps are a kind's capability flags, shared with the conformance suite.
type Caps struct {
	// Mutable kinds support Insert/Delete after construction.
	Mutable bool
	// Spatial kinds store points; non-spatial kinds store uint64 keys.
	Spatial bool
	// KNN spatial kinds answer k-nearest-neighbor queries.
	KNN bool
	// AllowsEmpty builders accept an empty record set.
	AllowsEmpty bool
	// Dims restricts a spatial kind to this dimensionality (0 = any).
	Dims int
}

// Kind is one registered index kind. Exactly the constructors the kind
// supports are non-nil: a kind with Static appears in StaticKinds, a
// kind with New appears in MutableKinds, Bulk is the optional
// bulk-loading fast path (the BulkBuilder capability — a property of
// the kind, not of an instance), and SpatialBulk/SpatialNew are the
// spatial equivalents: a spatial kind has either or both.
type Kind struct {
	Name string
	Caps Caps
	// Static builds a read-only index over sorted records.
	Static func(recs []core.KV) (Index, error)
	// New returns an empty mutable index.
	New func() (MutableIndex, error)
	// Bulk builds a mutable index over sorted records faster than an
	// insert loop; nil when the kind has no bulk path.
	Bulk func(recs []core.KV) (MutableIndex, error)
	// SpatialBulk builds a spatial index over points.
	SpatialBulk func(pvs []core.PV) (SpatialIndex, error)
	// SpatialNew returns an empty mutable spatial index for points of dim
	// dimensions.
	SpatialNew func(dim int) (MutableSpatialIndex, error)
}

var kinds []Kind

// Register adds a kind to the registry. It panics on duplicate names,
// empty names, or a kind with no constructor — programmer errors caught
// at init time.
func Register(k Kind) {
	if k.Name == "" {
		panic("registry: kind with empty name")
	}
	if k.Static == nil && k.New == nil && k.Bulk == nil && k.SpatialBulk == nil && k.SpatialNew == nil {
		panic("registry: kind " + k.Name + " has no constructor")
	}
	if k.Caps.Spatial != (k.SpatialBulk != nil || k.SpatialNew != nil) {
		panic("registry: kind " + k.Name + " constructors do not match Caps.Spatial")
	}
	if k.Caps.Mutable && !k.Caps.Spatial && k.New == nil && k.Bulk == nil {
		panic("registry: mutable kind " + k.Name + " has no mutable constructor")
	}
	for _, g := range kinds {
		if g.Name == k.Name {
			panic("registry: duplicate kind " + k.Name)
		}
	}
	kinds = append(kinds, k)
}

// Lookup returns the named kind.
func Lookup(name string) (Kind, error) {
	for _, k := range kinds {
		if k.Name == name {
			return k, nil
		}
	}
	return Kind{}, fmt.Errorf("registry: unknown index kind %q (known: %v)", name, Names())
}

// Static resolves name to a kind with a read-only builder.
func Static(name string) (Kind, error) {
	k, err := Lookup(name)
	if err != nil {
		return Kind{}, err
	}
	if k.Static == nil {
		return Kind{}, fmt.Errorf("registry: kind %q has no static builder (want one of %v)", name, StaticKinds())
	}
	return k, nil
}

// Mutable resolves name to a kind with a mutable constructor.
func Mutable(name string) (Kind, error) {
	k, err := Lookup(name)
	if err != nil {
		return Kind{}, err
	}
	if k.New == nil {
		return Kind{}, fmt.Errorf("registry: kind %q is not mutable (want one of %v)", name, MutableKinds())
	}
	return k, nil
}

// Kinds returns every registered kind in registration order.
func Kinds() []Kind { return append([]Kind(nil), kinds...) }

// Names returns every registered kind name, sorted.
func Names() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.Name
	}
	sort.Strings(out)
	return out
}

// StaticKinds lists the kinds with a read-only builder, in registration
// order (the order benchmark tables render in).
func StaticKinds() []string {
	var out []string
	for _, k := range kinds {
		if k.Static != nil {
			out = append(out, k.Name)
		}
	}
	return out
}

// MutableKinds lists the kinds with a mutable constructor, in
// registration order.
func MutableKinds() []string {
	var out []string
	for _, k := range kinds {
		if k.New != nil {
			out = append(out, k.Name)
		}
	}
	return out
}

// BuildMutable builds a mutable index of the named kind preloaded with
// recs (sorted ascending, distinct keys), through the kind's bulk path
// when it has one, else an empty constructor plus an insert loop.
func BuildMutable(name string, recs []core.KV) (MutableIndex, error) {
	k, err := Mutable(name)
	if err != nil {
		return nil, err
	}
	if k.Bulk != nil {
		return k.Bulk(recs)
	}
	ix, err := k.New()
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		ix.Insert(r.Key, r.Value)
	}
	return ix, nil
}

// BuildSpatial builds a spatial index of the named kind over pvs, through
// the kind's SpatialBulk when it has one, else InsertSpatial.
func BuildSpatial(name string, pvs []core.PV) (SpatialIndex, error) {
	k, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if k.SpatialBulk != nil {
		return k.SpatialBulk(pvs)
	}
	if k.SpatialNew == nil {
		return nil, fmt.Errorf("registry: kind %q is not spatial", name)
	}
	return k.InsertSpatial(pvs)
}

// InsertSpatial returns the kind's empty SpatialNew index, for the
// dimension of pvs (2 when pvs is empty), with every point inserted.
func (k Kind) InsertSpatial(pvs []core.PV) (MutableSpatialIndex, error) {
	dim := 2
	if len(pvs) > 0 {
		dim = pvs[0].Point.Dim()
	}
	ix, err := k.SpatialNew(dim)
	if err != nil {
		return nil, err
	}
	for _, pv := range pvs {
		if err := ix.Insert(pv.Point, pv.Value); err != nil {
			return nil, err
		}
	}
	return ix, nil
}
