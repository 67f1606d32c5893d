package registry_test

// The external test package imports the façade so its init populates the
// registry, then checks lookups, constructor dispatch and the Register
// panics against the live kind set.

import (
	"sort"
	"strings"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/registry"
)

func TestNamesSortedAndPopulated(t *testing.T) {
	names := registry.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"btree", "pgm", "alex", "rtree", "flood"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() missing %q: %v", want, names)
		}
	}
}

func TestKindListsMatchFacade(t *testing.T) {
	// The façade's public kind lists are registry views; enumeration order
	// is registration order and must stay byte-stable.
	if got, want := registry.StaticKinds(), lix.Static1DKinds(); !equal(got, want) {
		t.Fatalf("StaticKinds() = %v, façade %v", got, want)
	}
	if got, want := registry.MutableKinds(), lix.Mutable1DKinds(); !equal(got, want) {
		t.Fatalf("MutableKinds() = %v, façade %v", got, want)
	}
	want := []string{"rtree", "kdtree", "quadtree", "grid", "zm", "zm-hilbert", "mlindex", "flood", "lisa"}
	if got := lix.SpatialKinds(); !equal(got, want) {
		t.Fatalf("lix.SpatialKinds() = %v, want %v", got, want)
	}
}

func TestLookupErrors(t *testing.T) {
	if _, err := registry.Lookup("no-such-kind"); err == nil || !strings.Contains(err.Error(), "unknown index kind") {
		t.Fatalf("Lookup(no-such-kind) err = %v", err)
	}
	// skiplist registers only an empty constructor: no static build.
	if _, err := registry.Static("skiplist"); err == nil {
		t.Fatal("Static(skiplist) should fail: kind has no static builder")
	}
	// rmi is read-only: no mutable constructor.
	if _, err := registry.Mutable("rmi"); err == nil {
		t.Fatal("Mutable(rmi) should fail: kind is read-only")
	}
}

func TestBuildMutablePreloads(t *testing.T) {
	recs := []core.KV{{Key: 1, Value: 10}, {Key: 5, Value: 50}, {Key: 9, Value: 90}}
	for _, kind := range []string{"btree", "skiplist"} { // with and without Bulk
		ix, err := registry.BuildMutable(kind, recs)
		if err != nil {
			t.Fatalf("BuildMutable(%s): %v", kind, err)
		}
		if ix.Len() != len(recs) {
			t.Fatalf("%s: Len = %d, want %d", kind, ix.Len(), len(recs))
		}
		if v, ok := ix.Get(5); !ok || v != 50 {
			t.Fatalf("%s: Get(5) = (%d, %v), want (50, true)", kind, v, ok)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, k registry.Kind) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		registry.Register(k)
	}
	stat := func(recs []core.KV) (registry.Index, error) { return nil, nil }
	expectPanic("duplicate", registry.Kind{Name: "btree", Static: stat})
	expectPanic("empty name", registry.Kind{Static: stat})
	expectPanic("no constructor", registry.Kind{Name: "t-none"})
	expectPanic("spatial caps mismatch", registry.Kind{
		Name: "t-spatial", Caps: registry.Caps{Spatial: true}, Static: stat,
	})
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
