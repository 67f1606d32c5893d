package flood

import (
	"testing"

	"github.com/lix-go/lix/internal/dataset"
)

// TestLayoutDigest pins a hash of what Build lays out on fixed inputs: the
// tuned layout, the points in stored order, the cell offsets, the per-cell
// models and the grid's column boundaries. A change to the build path must
// leave every byte as it was.
func TestLayoutDigest(t *testing.T) {
	want := map[string]string{
		"lattice-d2": "d370dfb9a2c3e5d2",
		"lattice-d3": "6f68f4c3daed12f8",
		"lattice-d5": "d6424c1d638d142f",
		"osm-d2":     "00ffc6f751d9cb4b",
		"osm-d3":     "bd57e65cb19dfce9",
		"osm-d5":     "08c7cfbc3e35e405",
	}
	for name, pvs := range dataset.LayoutInputs() {
		ix, err := Build(pvs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.NewDigest()
		g.Add(int64(ix.cfg.SortDim), ix.grid.Side, ix.offsets, ix.segOff, ix.segFirst, ix.segs, ix.segErr)
		for d, c := range ix.grid.Cols {
			g.Add(int64(c), int64(ix.cfg.Cols[d]), ix.grid.Bounds[d])
		}
		g.Points(&ix.pts)
		if got, err := g.Sum(); err != nil || got != want[name] {
			t.Errorf("%s: digest %s (%v), want %s", name, got, err, want[name])
		}
	}
}
