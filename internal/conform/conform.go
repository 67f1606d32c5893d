// Package conform is the differential-testing and invariant-checking
// subsystem of the lix library. Every index implementation registers a
// factory here (see register.go) with capability flags; the conformance
// suite then replays deterministic workloads simultaneously against each
// registered index and a trivially-correct oracle (a sorted slice for the
// one-dimensional indexes, a brute-force scan for the spatial ones) and
// reports any divergence as a minimized operation sequence.
//
// The methodology follows the SOSD benchmark (Marcus et al., "Benchmarking
// Learned Indexes", VLDB 2020): all implementations must agree on the same
// workload, not merely pass their own unit tests. The ALEX evaluation
// showed this property is easy to violate silently under mixed
// insert/delete workloads, which is why the op mix here interleaves
// upserts, deletes, point reads, early-stopping range scans and length
// queries.
//
// Structures that expose a CheckInvariants() error hook (PGM ε-bounds,
// ALEX gapped-array ordering, LIPP precise positions, B+-tree occupancy,
// R-tree MBR containment, ...) additionally have their internal invariants
// verified at fixed points during every replay.
package conform

import (
	"fmt"
	"sort"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/registry"
)

// The index surfaces under test, and the capability flags a factory
// registers with: they tell the workload engine which operations the index
// supports.
type (
	Index               = core.Index
	MutableIndex        = core.MutableIndex
	SpatialIndex        = core.SpatialIndex
	KNNIndex            = core.KNNIndex
	MutableSpatialIndex = core.MutableSpatialIndex
	Caps                = registry.Caps
)

// Factory builds one index implementation for conformance testing. Exactly
// one of Build1D / BuildSpatial is set, matching Caps.Spatial.
type Factory struct {
	Name string
	Caps Caps
	// Build1D returns an index holding recs (sorted ascending, distinct
	// keys). Factories with Caps.Mutable must return a MutableIndex.
	Build1D func(recs []core.KV) (Index, error)
	// BuildSpatial returns a spatial index holding pvs. Factories with
	// Caps.Mutable must return a MutableSpatialIndex.
	BuildSpatial func(pvs []core.PV) (SpatialIndex, error)
}

var factories []Factory

// Register adds a factory to the registry. It panics on duplicate names or
// inconsistent capability flags — both are programmer errors caught at
// init time.
func Register(f Factory) {
	if f.Name == "" {
		panic("conform: factory with empty name")
	}
	for _, g := range factories {
		if g.Name == f.Name {
			panic("conform: duplicate factory " + f.Name)
		}
	}
	if f.Caps.Spatial && f.BuildSpatial == nil || !f.Caps.Spatial && f.Build1D == nil {
		panic("conform: factory " + f.Name + " builder does not match Caps.Spatial")
	}
	factories = append(factories, f)
}

// Factories returns all registered factories sorted by name.
func Factories() []Factory {
	out := append([]Factory(nil), factories...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Factories1D returns the registered one-dimensional factories.
func Factories1D() []Factory {
	var out []Factory
	for _, f := range Factories() {
		if !f.Caps.Spatial {
			out = append(out, f)
		}
	}
	return out
}

// FactoriesSpatial returns the registered spatial factories.
func FactoriesSpatial() []Factory {
	var out []Factory
	for _, f := range Factories() {
		if f.Caps.Spatial {
			out = append(out, f)
		}
	}
	return out
}

// Lookup returns the named factory.
func Lookup(name string) (Factory, error) {
	for _, f := range factories {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("conform: unknown factory %q", name)
}
