package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"github.com/lix-go/lix/internal/core"
)

// LayoutInputs are the fixed inputs the layout-digest tests build each
// spatial kind over: OSM-like points at d = 2, 3 and 5, and a share of the
// same points snapped to a coarse lattice, whose duplicate points, equal
// coordinates and equal distances exercise the builds' tie rules.
func LayoutInputs() map[string][]core.PV {
	in := map[string][]core.PV{}
	for _, dim := range []int{2, 3, 5} {
		pts, _ := Points(SOSMLike, 40000, dim, 4501)
		in[fmt.Sprintf("osm-d%d", dim)] = PV(pts)
		snapped := make([]core.Point, 8000)
		for i := range snapped {
			snapped[i] = make(core.Point, dim)
			for d, x := range pts[i] {
				snapped[i][d] = float64(int(x) &^ (1<<14 - 1))
			}
		}
		in[fmt.Sprintf("lattice-d%d", dim)] = PV(snapped)
	}
	return in
}

// Digest hashes what a build laid out, for the layout-digest tests: Add
// takes fixed-size values and slices of them (encoding/binary's rules, so
// no int), Points a point store in stored order.
type Digest struct {
	h   hash.Hash
	err error
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Add hashes vs in order.
func (g *Digest) Add(vs ...any) {
	for _, v := range vs {
		if err := binary.Write(g.h, binary.LittleEndian, v); err != nil && g.err == nil {
			g.err = err
		}
	}
}

// Points hashes the coordinates and values of s, point by point.
func (g *Digest) Points(s *core.PointStore) {
	g.Add(int64(s.Len()))
	for i := 0; i < s.Len(); i++ {
		pv := s.PV(i)
		g.Add([]float64(pv.Point), pv.Value)
	}
}

// Sum returns the first 16 hex digits of the hash, or the first error Add
// met.
func (g *Digest) Sum() (string, error) {
	return hex.EncodeToString(g.h.Sum(nil))[:16], g.err
}
