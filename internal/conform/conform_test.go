package conform

import (
	"fmt"
	"sort"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// Sizing of the differential runs: every factory is replayed through
// diffOps operations per workload shape (the issue's floor is 5,000).
// -short (used by the CI -race tier, where every op costs ~10x) scales the
// runs down; the full-size suite still runs race-free in the same CI job.
const (
	diffInit1D      = 4000
	diffOps1D       = 5000
	diffInitSpatial = 1500
	diffOpsSpatial  = 5000
)

func diffSizes1D(t *testing.T) (nInit, nOps int) {
	if testing.Short() {
		return diffInit1D / 10, diffOps1D / 10
	}
	return diffInit1D, diffOps1D
}

func diffSizesSpatial(t *testing.T) (nInit, nOps int) {
	if testing.Short() {
		return diffInitSpatial / 5, diffOpsSpatial / 10
	}
	return diffInitSpatial, diffOpsSpatial
}

func TestRegistryCoverage(t *testing.T) {
	fs := Factories()
	if len(fs) < 20 {
		t.Fatalf("registry holds %d factories, want >= 20", len(fs))
	}
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Factories() not sorted: %v", names)
	}
	for _, must := range []string{
		"sorted-array", "btree", "skiplist", "skiplist-learned", "rmi", "rmi-hybrid",
		"pgm", "pgm-dynamic", "radixspline", "histtree", "alex", "lipp", "fiting",
		"xindex",
		"rtree", "rtree-bulk", "kdtree", "quadtree", "grid",
		"zm", "zm-hilbert", "mlindex", "flood", "lisa", "qdtree", "rtree-learned",
	} {
		if _, err := Lookup(must); err != nil {
			t.Errorf("expected factory %q registered: %v", must, err)
		}
	}
}

// TestDifferential1D replays every 1-D factory through every workload shape
// against the sorted-slice oracle.
func TestDifferential1D(t *testing.T) {
	for _, f := range Factories1D() {
		for _, kind := range Shapes1D() {
			f, kind := f, kind
			t.Run(fmt.Sprintf("%s/%s", f.Name, kind), func(t *testing.T) {
				t.Parallel()
				nInit, nOps := diffSizes1D(t)
				w, err := NewWorkload1D(kind, nInit, nOps, f.Caps.Mutable, 0x11ce+int64(len(f.Name)))
				if err != nil {
					t.Fatalf("workload: %v", err)
				}
				if d := Run1D(f, w, 0); d != nil {
					t.Fatalf("%s", d)
				}
			})
		}
	}
}

// TestDifferentialSpatial replays every spatial factory through every point
// distribution against the brute-force oracle.
func TestDifferentialSpatial(t *testing.T) {
	for _, f := range FactoriesSpatial() {
		for _, kind := range ShapesSpatial() {
			f, kind := f, kind
			t.Run(fmt.Sprintf("%s/%s", f.Name, kind), func(t *testing.T) {
				t.Parallel()
				nInit, nOps := diffSizesSpatial(t)
				w, err := NewSpatialWorkload(kind, nInit, nOps, 2,
					f.Caps.Mutable, f.Caps.KNN, 0x2dce+int64(len(f.Name)))
				if err != nil {
					t.Fatalf("workload: %v", err)
				}
				if d := RunSpatial(f, w, 0); d != nil {
					t.Fatalf("%s", d)
				}
			})
		}
	}
}

// TestDifferentialSpatialDims replays every spatial factory that takes any
// dimensionality through every point distribution in 3 and 5 dimensions.
func TestDifferentialSpatialDims(t *testing.T) {
	for _, f := range FactoriesSpatial() {
		if f.Caps.Dims != 0 {
			continue
		}
		for _, dim := range []int{3, 5} {
			for _, kind := range ShapesSpatial() {
				f, dim, kind := f, dim, kind
				t.Run(fmt.Sprintf("%s/d%d/%s", f.Name, dim, kind), func(t *testing.T) {
					t.Parallel()
					nInit, nOps := diffSizesSpatial(t)
					w, err := NewSpatialWorkload(kind, nInit, nOps/2, dim,
						f.Caps.Mutable, f.Caps.KNN, 0x3d5e+int64(dim)+int64(len(f.Name)))
					if err != nil {
						t.Fatalf("workload: %v", err)
					}
					if d := RunSpatial(f, w, 0); d != nil {
						t.Fatalf("%s", d)
					}
				})
			}
		}
	}
}

// TestCorpus1D applies the shared edge-case corpus to every 1-D factory.
func TestCorpus1D(t *testing.T) {
	for _, f := range Factories1D() {
		for _, c := range Corpus1D() {
			if len(c.Recs) == 0 && !f.Caps.AllowsEmpty {
				continue
			}
			f, c := f, c
			t.Run(fmt.Sprintf("%s/%s", f.Name, c.Name), func(t *testing.T) {
				t.Parallel()
				w := Workload1D{
					Name: "corpus/" + c.Name,
					Init: c.Recs,
					Ops:  CorpusOps1D(c.Recs, f.Caps.Mutable),
				}
				if d := Run1D(f, w, 0); d != nil {
					t.Fatalf("%s", d)
				}
			})
		}
	}
}

// TestCorpusSpatial applies the shared spatial edge-case corpus to every
// spatial factory.
func TestCorpusSpatial(t *testing.T) {
	for _, f := range FactoriesSpatial() {
		for _, c := range CorpusSpatial() {
			if len(c.Pts) == 0 && !f.Caps.AllowsEmpty {
				continue
			}
			if f.Caps.Dims != 0 && f.Caps.Dims != 2 {
				continue // corpus cases are 2-D
			}
			f, c := f, c
			t.Run(fmt.Sprintf("%s/%s", f.Name, c.Name), func(t *testing.T) {
				t.Parallel()
				w := SpatialWorkload{
					Name: "corpus/" + c.Name,
					Init: c.Pts,
					Ops:  CorpusOpsSpatial(c.Pts, f.Caps.Mutable, f.Caps.KNN),
				}
				if d := RunSpatial(f, w, 0); d != nil {
					t.Fatalf("%s", d)
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Shrinker self-test: a deliberately broken index must be caught and the
// reproduction minimized to a handful of operations.
// ---------------------------------------------------------------------------

// brokenIndex wraps the oracle but lies about one key.
type brokenIndex struct {
	o      *oracle1D
	badKey core.Key
}

func (b *brokenIndex) Get(k core.Key) (core.Value, bool) {
	if k == b.badKey {
		return 0, false // the planted bug
	}
	return b.o.Get(k)
}
func (b *brokenIndex) Insert(k core.Key, v core.Value) { b.o.Insert(k, v) }
func (b *brokenIndex) Delete(k core.Key) bool          { return b.o.Delete(k) }
func (b *brokenIndex) Len() int                        { return b.o.Len() }
func (b *brokenIndex) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	return b.o.Range(lo, hi, fn)
}
func (b *brokenIndex) Stats() core.Stats { return core.Stats{Name: "broken"} }

func TestShrinkerMinimizesRepro(t *testing.T) {
	const bad = core.Key(777_777)
	f := Factory{
		Name: "broken-for-test",
		Caps: Caps{Mutable: true, AllowsEmpty: true},
		Build1D: func(recs []core.KV) (Index, error) {
			return &brokenIndex{o: newOracle1D(recs), badKey: bad}, nil
		},
	}
	// A big workload in which exactly one op trips the bug.
	w, err := NewWorkload1D(Shapes1D()[0], 2000, 3000, true, 99)
	if err != nil {
		t.Fatal(err)
	}
	w.Init = append([]core.KV{{Key: bad, Value: 5}}, w.Init...)
	sort.Slice(w.Init, func(i, j int) bool { return w.Init[i].Key < w.Init[j].Key })
	w.Ops = append(w.Ops[:2000:2000], append([]Op{{Kind: OpGet, Key: bad}}, w.Ops[2000:]...)...)

	d := Run1D(f, w, 0)
	if d == nil {
		t.Fatal("broken index passed the differential run")
	}
	if len(d.Ops1D) > 3 {
		t.Errorf("shrunk op sequence has %d ops, want <= 3:\n%s", len(d.Ops1D), d)
	}
	if len(d.Init1D) > 2 {
		t.Errorf("shrunk init has %d records, want <= 2:\n%s", len(d.Init1D), d)
	}
	// The minimized recipe must still reproduce the divergence.
	if idx, _ := replay1D(f, d.Init1D, d.Ops1D, 0); idx == replayOK {
		t.Errorf("minimized repro no longer fails:\n%s", d)
	}
}

// invariantLiar conforms behaviorally but reports a broken invariant.
type invariantLiar struct{ *oracle1D }

func (invariantLiar) Stats() core.Stats      { return core.Stats{Name: "liar"} }
func (invariantLiar) CheckInvariants() error { return fmt.Errorf("planted invariant violation") }

func TestInvariantHookSurfacesViolations(t *testing.T) {
	f := Factory{
		Name: "invariant-liar",
		Caps: Caps{AllowsEmpty: true},
		Build1D: func(recs []core.KV) (Index, error) {
			return invariantLiar{newOracle1D(recs)}, nil
		},
	}
	w := Workload1D{Name: "liar", Init: nil, Ops: []Op{{Kind: OpLen}}}
	d := Run1D(f, w, 0)
	if d == nil {
		t.Fatal("invariant violation was not reported")
	}
}

// TestOracleSelfCheck pins the oracle's Range semantics: the record on
// which fn returns false counts as visited.
func TestOracleSelfCheck(t *testing.T) {
	o := newOracle1D([]core.KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 3, Value: 30}})
	visits := 0
	n := o.Range(0, 100, func(core.Key, core.Value) bool {
		visits++
		return visits < 2
	})
	if n != 2 || visits != 2 {
		t.Fatalf("oracle early-stop Range visited %d (fn calls %d), want 2", n, visits)
	}
	if !o.Delete(2) || o.Delete(2) {
		t.Fatal("oracle Delete semantics broken")
	}
	if v, ok := o.Get(3); !ok || v != 30 {
		t.Fatalf("oracle Get(3) = (%d, %v)", v, ok)
	}
}
