package conform

import (
	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/registry"
)

// This file derives the conformance factory set from the kind registry:
// every kind registered by the façade (see the façade's register.go) is
// enumerated and wrapped into a conformance factory with the matching
// capability flags, so a new index opts into the differential suite, the
// edge-case corpus and the invariant sweep by registering once with
// internal/registry. A handful of façade constructors that are not
// serving kinds (test-scale variants, the layered sharded
// configurations) are registered explicitly at the bottom.

// mutable1D registers a mutable 1-D factory whose builder starts empty and
// is preloaded by per-record inserts (the path a live system exercises).
func mutable1D(name string, mk func() lix.MutableIndex) {
	Register(Factory{
		Name: name,
		Caps: Caps{Mutable: true, AllowsEmpty: true},
		Build1D: func(recs []core.KV) (Index, error) {
			ix := mk()
			for _, r := range recs {
				ix.Insert(r.Key, r.Value)
			}
			return ix, nil
		},
	})
}

// static1D registers a read-only 1-D factory built over sorted records.
func static1D(name string, allowsEmpty bool, build func(recs []core.KV) (lix.Index, error)) {
	Register(Factory{
		Name: name,
		Caps: Caps{AllowsEmpty: allowsEmpty},
		Build1D: func(recs []core.KV) (Index, error) {
			ix, err := build(recs)
			if err != nil {
				return nil, err
			}
			return ix, nil
		},
	})
}

// conformNames maps registry kind names to historical conformance factory
// names where they differ.
var conformNames = map[string]string{"binary": "sorted-array"}

// conformOverrides replaces a registry kind's empty constructor with
// conformance-tuned parameters: seeds and capacities small enough that
// 5k-op workloads exercise structural maintenance (retrains, merges,
// buffer spills), not just the fast path.
var conformOverrides = map[string]func() lix.MutableIndex{
	"skiplist":         func() lix.MutableIndex { return lix.NewSkipList(42) },
	"skiplist-learned": func() lix.MutableIndex { return lix.NewLearnedSkipList(42, 0) },
	"pgm-dynamic":      func() lix.MutableIndex { return lix.NewDynamicPGM(0, 64) },
	// Paged kinds run with a frame budget far below the working set, so
	// every conformance replay crosses CLOCK evictions and write-backs.
	"paged-btree": func() lix.MutableIndex {
		ix, err := lix.NewTempPagedBTree(lix.PagedOptions{PoolFrames: 8})
		if err != nil {
			panic("conform: paged-btree: " + err.Error())
		}
		return ix
	},
	"paged-pgm": func() lix.MutableIndex {
		ix, err := lix.NewTempPagedPGM(lix.PagedOptions{PoolFrames: 8})
		if err != nil {
			panic("conform: paged-pgm: " + err.Error())
		}
		return ix
	},
}

func register1DFromRegistry(k registry.Kind) {
	name := k.Name
	if rn, ok := conformNames[name]; ok {
		name = rn
	}
	if k.New != nil {
		mk := func() lix.MutableIndex {
			ix, err := k.New()
			if err != nil {
				// Empty constructors of registered kinds do not fail; a kind
				// whose constructor can fail must register explicitly.
				panic("conform: kind " + k.Name + ": " + err.Error())
			}
			return ix
		}
		if ov, ok := conformOverrides[k.Name]; ok {
			mk = ov
		}
		mutable1D(name, mk)
		return
	}
	static1D(name, k.Caps.AllowsEmpty, func(recs []core.KV) (lix.Index, error) {
		return k.Static(recs)
	})
}

// registerSpatialFromRegistry registers a spatial kind's insert path
// under its name and its bulk path under its name, or under <name>-bulk
// when it has both.
func registerSpatialFromRegistry(k registry.Kind) {
	name := k.Name
	if k.SpatialNew != nil {
		Register(Factory{
			Name: name,
			Caps: k.Caps,
			BuildSpatial: func(pvs []core.PV) (SpatialIndex, error) {
				return k.InsertSpatial(pvs)
			},
		})
		name += "-bulk"
	}
	if k.SpatialBulk != nil {
		Register(Factory{Name: name, Caps: k.Caps, BuildSpatial: k.SpatialBulk})
	}
}

func init() {
	for _, k := range registry.Kinds() {
		k := k
		if k.Caps.Spatial {
			registerSpatialFromRegistry(k)
		} else {
			register1DFromRegistry(k)
		}
	}

	// Façade constructors that are not registry kinds.
	static1D("rmi-hybrid", true, func(recs []core.KV) (lix.Index, error) {
		return lix.NewHybridRMI(recs, lix.RMIConfig{}, 64)
	})
	mutable1D("xindex", func() lix.MutableIndex {
		// Small groups/deltas so 5k-op workloads exercise compaction and
		// splits, not just the delta buffer.
		return lix.NewXIndex(512, 64)
	})

	// The sharded serving stack, registered with a bulk-building factory so
	// the router splits at the workload's key quantiles and every replay
	// crosses shard boundaries. The shard count is small so 5k-op
	// workloads force cross-shard ranges.
	Register(Factory{
		Name: "sharded-rw",
		Caps: Caps{Mutable: true, AllowsEmpty: true},
		Build1D: func(recs []core.KV) (Index, error) {
			return lix.NewStack(recs, lix.StackConfig{Shards: 4})
		},
	})
}
