package zm

import (
	"testing"

	"github.com/lix-go/lix/internal/dataset"
)

// TestLayoutDigest pins a hash of what Build lays out on fixed inputs: the
// codes, the points in stored order, the quantizer and the tuned level, on
// the Z-curve and, in 2-D, the Hilbert curve. A change to the build path
// must leave every byte as it was.
func TestLayoutDigest(t *testing.T) {
	want := map[string]string{
		"lattice-d2-hilbert": "2dc81ae3d924ca88",
		"lattice-d2-z":       "c04c37c5467ddd75",
		"lattice-d3-z":       "c14e9832f9fd6fe1",
		"lattice-d5-z":       "9db2d214ccefc8c5",
		"osm-d2-hilbert":     "9c85d6e70be3e46b",
		"osm-d2-z":           "db0d6eb97611dcbe",
		"osm-d3-z":           "ca18e9f533c0156e",
		"osm-d5-z":           "792bf52921c23aa9",
	}
	for name, pvs := range dataset.LayoutInputs() {
		for _, curve := range []CurveKind{CurveZ, CurveHilbert} {
			if curve == CurveHilbert && len(pvs[0].Point) != 2 {
				continue
			}
			z, err := Build(pvs, Config{Curve: curve})
			if err != nil {
				t.Fatal(err)
			}
			g := dataset.NewDigest()
			g.Add(z.Keys, z.Side, uint64(z.cfg.Bits), int64(z.cfg.MaxRanges), uint64(z.level), z.quant.Min, z.quant.Max)
			g.Points(&z.Pts)
			key := name + "-" + string(curve)
			if got, err := g.Sum(); err != nil || got != want[key] {
				t.Errorf("%s: digest %s (%v), want %s", key, got, err, want[key])
			}
		}
	}
}
