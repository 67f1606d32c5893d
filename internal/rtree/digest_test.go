package rtree

import (
	"testing"

	"github.com/lix-go/lix/internal/dataset"
)

// TestLayoutDigest pins a hash of what BulkSTR lays out on fixed inputs:
// every node in depth-first order, its children's boxes or its points in
// stored order. A change to the build path must leave every byte as it was.
func TestLayoutDigest(t *testing.T) {
	want := map[string]string{
		"lattice-d2": "76bba7392e081812",
		"lattice-d3": "534573c364347ac5",
		"lattice-d5": "1b4b7a30cc813881",
		"osm-d2":     "8b6dcc64780db0de",
		"osm-d3":     "309cef53aa8da1a2",
		"osm-d5":     "ba5753e99894e401",
	}
	for name, pvs := range dataset.LayoutInputs() {
		tr, err := BulkSTR(0, pvs)
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.NewDigest()
		g.Add(int64(tr.size), int64(tr.dim), int64(tr.maxEntries))
		var walk func(n *node)
		walk = func(n *node) {
			g.Add(n.leaf, int64(len(n.kids)), n.bounds)
			g.Points(&n.pts)
			for _, k := range n.kids {
				walk(k)
			}
		}
		walk(tr.root)
		if got, err := g.Sum(); err != nil || got != want[name] {
			t.Errorf("%s: digest %s (%v), want %s", name, got, err, want[name])
		}
	}
}
