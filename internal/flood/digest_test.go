package flood

import (
	"testing"

	"github.com/lix-go/lix/internal/dataset"
)

// TestLayoutDigest pins a hash of what Build lays out on fixed inputs: the
// tuned layout, the points in stored order, the cell offsets, the per-cell
// models and the column models (through their predictions at a ladder of
// values). A change to the build path must leave every byte as it was.
func TestLayoutDigest(t *testing.T) {
	want := map[string]string{
		"lattice-d2": "061d61c74b4603c0",
		"lattice-d3": "1ed1fc9e72a4d1cb",
		"lattice-d5": "64f9d588e98f6ff7",
		"osm-d2":     "120e51b82ef276c4",
		"osm-d3":     "97ddd4edee412919",
		"osm-d5":     "37ee6fcca4f06726",
	}
	for name, pvs := range dataset.LayoutInputs() {
		ix, err := Build(pvs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.NewDigest()
		g.Add(int64(ix.cfg.SortDim), ix.side, ix.offsets, ix.segOff, ix.segFirst, ix.segs, ix.segErr)
		for d, c := range ix.cols {
			g.Add(int64(c), int64(ix.cfg.Cols[d]))
			if cdf := ix.cdfs[d]; cdf != nil {
				for v := -1.0; v <= dataset.Extent; v += dataset.Extent / 4096 {
					g.Add(cdf.Predict(v))
				}
			}
		}
		g.Points(&ix.pts)
		if got, err := g.Sum(); err != nil || got != want[name] {
			t.Errorf("%s: digest %s (%v), want %s", name, got, err, want[name])
		}
	}
}
