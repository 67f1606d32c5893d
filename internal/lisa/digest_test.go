package lisa

import (
	"testing"

	"github.com/lix-go/lix/internal/dataset"
)

// TestLayoutDigest pins a hash of what Build lays out on fixed inputs: the
// grid's boundaries, the router and every shard's runs, their cells and
// points in stored order. A change to the build path must leave every byte
// as it was.
func TestLayoutDigest(t *testing.T) {
	want := map[string]string{
		"lattice-d2": "9cf599527783398c",
		"lattice-d3": "a389334b924babb6",
		"lattice-d5": "57ee44b0b6e6453f",
		"osm-d2":     "6c5a6a954cd9e365",
		"osm-d3":     "2ed8346d056f3b3b",
		"osm-d5":     "c3a4598916c7b5f3",
	}
	for name, pvs := range dataset.LayoutInputs() {
		ix, err := Build(pvs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.NewDigest()
		g.Add(int64(ix.cfg.GridCols), int64(ix.cfg.ShardSize), int64(ix.cfg.DeltaCap), ix.slope, ix.base, int64(ix.size), ix.grid.Side)
		for _, b := range ix.grid.Bounds {
			g.Add(b)
		}
		for _, sh := range ix.shards {
			g.Add(sh.loM)
			for _, r := range sh.runs() {
				g.Add(r.cells)
				g.Points(&r.pts)
			}
		}
		if got, err := g.Sum(); err != nil || got != want[name] {
			t.Errorf("%s: digest %s (%v), want %s", name, got, err, want[name])
		}
	}
}
