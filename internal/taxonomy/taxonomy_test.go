package taxonomy

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCatalogWellFormed(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Catalog() {
		if e.Name == "" || e.Year < 2017 || e.Year > 2026 {
			t.Fatalf("bad entry %+v", e)
		}
		if names[e.Name] {
			t.Fatalf("duplicate name %q", e.Name)
		}
		names[e.Name] = true
		if e.Kind == Hybrid && e.HybridBase == "" {
			t.Fatalf("hybrid %q without base", e.Name)
		}
		if e.Dim == MultiDim && e.Space == NotApplicable {
			t.Fatalf("multi-D %q without space classification", e.Name)
		}
		if e.Mutability == Immutable && e.Insert != NoInserts {
			t.Fatalf("immutable %q with insert strategy", e.Name)
		}
	}
	// Lineage edges must reference existing entries.
	for _, e := range Catalog() {
		for _, inf := range e.Influences {
			if !names[inf] {
				t.Fatalf("%q influences unknown %q", e.Name, inf)
			}
		}
	}
}

func TestInfluencesAreAcyclicAndBackwards(t *testing.T) {
	for _, e := range Catalog() {
		for _, inf := range e.Influences {
			p, ok := ByName(inf)
			if !ok {
				t.Fatal("missing influence")
			}
			if p.Year > e.Year {
				t.Fatalf("%q (%d) influenced by later %q (%d)", e.Name, e.Year, p.Name, p.Year)
			}
		}
	}
}

func TestEveryMajorBranchImplemented(t *testing.T) {
	cov := CoverageReport()
	wanted := []string{
		"1-D/immutable/fixed/pure",
		"1-D/immutable/fixed/hybrid",
		"1-D/mutable/fixed/pure",
		"1-D/mutable/dynamic/pure",
		"multi-D/immutable/fixed/pure",
		"multi-D/immutable/fixed/hybrid",
		"multi-D/mutable/dynamic/pure",
		"multi-D/mutable/dynamic/hybrid",
	}
	for _, w := range wanted {
		if cov[w] == 0 {
			t.Fatalf("taxonomy branch %q has no implemented representative (cov=%v)", w, cov)
		}
	}
}

func TestInsertStrategyCoverage(t *testing.T) {
	// Both insert strategies must have implemented representatives in 1-D.
	var inplace, delta bool
	for _, e := range Implemented() {
		if e.Dim == OneDim && e.Insert == InPlace {
			inplace = true
		}
		if e.Dim == OneDim && e.Insert == DeltaBuffer {
			delta = true
		}
	}
	if !inplace || !delta {
		t.Fatalf("insert strategies not both covered: inplace=%v delta=%v", inplace, delta)
	}
}

func TestSpaceCoverage(t *testing.T) {
	var projected, native bool
	for _, e := range Implemented() {
		if e.Dim == MultiDim && e.Space == Projected {
			projected = true
		}
		if e.Dim == MultiDim && e.Space == Native {
			native = true
		}
	}
	if !projected || !native {
		t.Fatalf("space handling not both covered: projected=%v native=%v", projected, native)
	}
}

func TestConcurrentRepresentative(t *testing.T) {
	found := false
	for _, e := range Implemented() {
		if e.Concurrent {
			found = true
		}
	}
	if !found {
		t.Fatal("no implemented concurrent index")
	}
}

func TestFigureRenderings(t *testing.T) {
	s := Spectrum()
	if !strings.Contains(s, "PURE") || !strings.Contains(s, "HYBRID") || !strings.Contains(s, "RMI") {
		t.Fatalf("spectrum rendering incomplete:\n%s", s)
	}
	tree := Tree()
	for _, want := range []string{"1-D", "multi-D", "immutable", "mutable", "ALEX", "PGM-index", "LISA", "[impl]"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree rendering missing %q", want)
		}
	}
	tl := Timeline()
	for _, want := range []string{"2018", "2020", "RMI", "<- RMI", "△"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("RMI"); !ok {
		t.Fatal("RMI missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("phantom entry")
	}
}

func TestImplementedCount(t *testing.T) {
	if n := len(Implemented()); n < 15 {
		t.Fatalf("only %d implemented entries", n)
	}
	if n := len(Catalog()); n < 40 {
		t.Fatalf("catalog has only %d entries", n)
	}
}

// TestPackagesExist: every non-empty Package names a directory under the
// module root that holds a non-test Go file, so deleting an implementation
// cannot leave the catalog pointing at nothing.
func TestPackagesExist(t *testing.T) {
	root := filepath.Join("..", "..") // go test runs in the package's directory
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	for _, e := range Catalog() {
		if e.Package == "" {
			continue
		}
		files, _ := filepath.Glob(filepath.Join(root, e.Package, "*.go")) // errs only on a malformed pattern
		found := false
		for _, f := range files {
			found = found || !strings.HasSuffix(f, "_test.go")
		}
		if !found {
			t.Errorf("%s: package %q holds no non-test Go file", e.Name, e.Package)
		}
	}
}
