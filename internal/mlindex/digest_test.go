package mlindex

import (
	"fmt"
	"testing"

	"github.com/lix-go/lix/internal/dataset"
)

// TestLayoutDigest pins a hash of what Build lays out on fixed inputs: the
// keys, the points in stored order, the reference points and the key
// mapping's parameters, at the default reference count and at the 61 the
// default gives 500 k points. A change to the build path must leave every
// byte as it was.
func TestLayoutDigest(t *testing.T) {
	want := map[string]string{
		"lattice-d2-refs16": "e1f14c84a1c5e886",
		"lattice-d2-refs61": "37679cf256871755",
		"lattice-d3-refs16": "993c52a7c34536a4",
		"lattice-d3-refs61": "a2736a1174110db1",
		"lattice-d5-refs16": "4cc44106d299081c",
		"lattice-d5-refs61": "cd14240942da02ca",
		"osm-d2-refs16":     "ff00881f3f2852ef",
		"osm-d2-refs61":     "1330c31be16f031a",
		"osm-d3-refs16":     "566e21a45338e8b3",
		"osm-d3-refs61":     "e6d6218bc70a3d9b",
		"osm-d5-refs16":     "c1c8c8aaeb569da7",
		"osm-d5-refs61":     "d5483e305f8c1b1f",
	}
	for name, pvs := range dataset.LayoutInputs() {
		for _, refs := range []int{0, 61} {
			m, err := Build(pvs, Config{Refs: refs})
			if err != nil {
				t.Fatal(err)
			}
			g := dataset.NewDigest()
			g.Add(m.Keys, m.Side, uint64(m.shift), m.distScale, m.maxDist)
			for _, ref := range m.refs {
				g.Add([]float64(ref))
			}
			g.Points(&m.Pts)
			key := fmt.Sprintf("%s-refs%d", name, len(m.refs))
			if got, err := g.Sum(); err != nil || got != want[key] {
				t.Errorf("%s: digest %s (%v), want %s", key, got, err, want[key])
			}
		}
	}
}
