// Package zm implements the ZM-index (Wang et al., MDM 2019): points are
// projected to one dimension with a Z-order (or Hilbert) space-filling
// curve and a learned one-dimensional index — here a PGM-index — is built
// over the curve codes. Range queries decompose the query rectangle into
// curve intervals, look up each interval in the learned index, and filter
// the scanned points exactly.
//
// Taxonomy: immutable / pure / projected space (Approach 2 in the paper).
package zm

import (
	"fmt"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/pgm"
	"github.com/lix-go/lix/internal/sfc"
)

// CurveKind selects the projection curve.
type CurveKind string

// Supported curves. Hilbert is 2-D only.
const (
	CurveZ       CurveKind = "z"
	CurveHilbert CurveKind = "hilbert"
)

// Config parameterizes a build.
type Config struct {
	// Bits per dimension for quantization (0 selects the max that fits).
	Bits uint
	// Epsilon for the underlying PGM-index (0 selects the PGM default).
	Epsilon int
	// Curve selects the projection (empty selects CurveZ).
	Curve CurveKind
	// MaxRanges bounds the per-query rectangle decomposition. 0 selects 8 on
	// the Z-curve, whose scan skips ahead over whatever a coarse interval
	// covers outside the rectangle, so a finer decomposition only costs its
	// own time; and 128 on the Hilbert curve, whose scan filters all of it.
	MaxRanges int
}

const (
	zMaxRanges       = 8
	hilbertMaxRanges = 128
)

// Index is an immutable ZM-index.
type Index struct {
	cfg    Config
	dim    int
	side   float64 // longest side of the data extent
	quant  *sfc.Quantizer
	morton *sfc.Morton
	hil    *sfc.Hilbert2D
	codes  []core.Key      // sorted curve codes, parallel to pts
	pts    core.PointStore // in code order
	ix     *pgm.Index      // over codes
}

// Build constructs a ZM-index over the points (copied and reordered).
func Build(pvs []core.PV, cfg Config) (*Index, error) {
	dim, err := core.PointsDim(pvs)
	if err != nil {
		return nil, fmt.Errorf("zm: %w", err)
	}
	if cfg.Curve == "" {
		cfg.Curve = CurveZ
	}
	if cfg.Curve == CurveHilbert && dim != 2 {
		return nil, fmt.Errorf("zm: hilbert curve requires dim 2, got %d", dim)
	}
	if cfg.Bits == 0 {
		cfg.Bits = uint(63 / dim)
		if cfg.Bits > 20 {
			cfg.Bits = 20
		}
	}
	if cfg.MaxRanges <= 0 {
		cfg.MaxRanges = zMaxRanges
		if cfg.Curve == CurveHilbert {
			cfg.MaxRanges = hilbertMaxRanges
		}
	}
	// Bounds: dataset extent with slack for exact data bounds.
	ext := core.Bounds(pvs)
	z := &Index{cfg: cfg, dim: dim}
	for d := 0; d < dim; d++ {
		z.side = max(z.side, ext.Max[d]-ext.Min[d])
		if !(ext.Max[d] > ext.Min[d]) {
			ext.Max[d] = ext.Min[d] + 1
		} else {
			ext.Max[d] += (ext.Max[d] - ext.Min[d]) * 1e-9 // make the top point interior
		}
	}
	if z.quant, err = sfc.NewQuantizer(ext.Min, ext.Max, cfg.Bits); err != nil {
		return nil, err
	}
	switch cfg.Curve {
	case CurveZ:
		z.morton, err = sfc.NewMorton(dim, cfg.Bits)
	case CurveHilbert:
		z.hil, err = sfc.NewHilbert2D(cfg.Bits)
	default:
		return nil, fmt.Errorf("zm: unknown curve %q", cfg.Curve)
	}
	if err != nil {
		return nil, err
	}
	z.codes = make([]core.Key, len(pvs))
	for i, pv := range pvs {
		z.codes[i] = z.code(pv.Point)
	}
	z.pts = core.NewPointStoreFrom(dim, pvs, core.SortKeys(z.codes))
	// The model is built over the code column the index already holds: a
	// code's value would only be its position.
	if z.ix, err = pgm.BuildKeys(z.codes, cfg.Epsilon); err != nil {
		return nil, err
	}
	return z, nil
}

// code projects p to its curve code, allocating nothing.
func (z *Index) code(p core.Point) core.Key {
	if z.morton == nil {
		return z.hil.Encode(z.quant.Cell(0, p[0]), z.quant.Cell(1, p[1]))
	}
	var c core.Key
	for d := range p {
		c |= z.morton.Spread(d, z.quant.Cell(d, p[d]))
	}
	return c
}

// Len returns the number of points.
func (z *Index) Len() int { return len(z.codes) }

// Lookup returns the value of the point equal to p.
func (z *Index) Lookup(p core.Point) (core.Value, bool) {
	if p.Dim() != z.dim {
		return 0, false
	}
	c := z.code(p)
	i := z.ix.LowerBound(c)
	if i = z.pts.Find(i, core.ExponentialSearch(z.codes, c+1, i), p); i < 0 {
		return 0, false
	}
	return z.pts.PV(i).Value, true
}

// Search calls fn for every point in rect; fn returning false stops. It
// returns points visited and curve intervals scanned (the I/O proxy).
func (z *Index) Search(rect core.Rect, fn func(core.PV) bool) (visited, intervals int) {
	if rect.Dim() != z.dim {
		return 0, 0
	}
	var buf [zMaxRanges]sfc.Interval // a larger budget spills to the heap
	var ivs []sfc.Interval
	var zmin, zmax core.Key
	if z.morton != nil {
		zmin, zmax = z.code(rect.Min), z.code(rect.Max)
		ivs = z.morton.Ranges(buf[:0], zmin, zmax, z.cfg.MaxRanges)
	} else {
		ivs = z.hil.Ranges(
			[2]uint32{z.quant.Cell(0, rect.Min[0]), z.quant.Cell(1, rect.Min[1])},
			[2]uint32{z.quant.Cell(0, rect.Max[0]), z.quant.Cell(1, rect.Max[1])}, z.cfg.MaxRanges)
	}
	if len(ivs) == 0 {
		return 0, 0 // a rectangle whose Min lies above its Max holds nothing
	}
	// inBox says whether a stored code can hold a result; the Hilbert curve
	// has no cheap test and filters every point of its intervals.
	inBox := func(c core.Key) bool { return z.morton == nil || z.morton.InBox(c, zmin, zmax) }
	// The learned index finds where the scan starts; from there every move
	// is forward, mostly by a few positions, and an exponential search from
	// the current one costs the logarithm of that distance.
	pos, n := z.ix.LowerBound(ivs[0].Lo), len(z.codes)
	for _, iv := range ivs {
		pos = core.ExponentialSearch(z.codes, iv.Lo, pos)
		for pos < n && z.codes[pos] <= iv.Hi {
			if c := z.codes[pos]; !inBox(c) {
				// The budget made this interval cover cells outside the
				// box: resume at the next code inside it.
				next := z.morton.BigMin(c, zmin, zmax)
				if next > iv.Hi {
					break
				}
				pos = core.ExponentialSearch(z.codes, next, pos)
				continue
			}
			end := pos + 1
			for end < n && z.codes[end] <= iv.Hi && inBox(z.codes[end]) {
				end++
			}
			m, cont := z.pts.ScanRect(pos, end, rect, fn)
			visited += m
			if !cont {
				return visited, len(ivs)
			}
			pos = end
		}
	}
	return visited, len(ivs)
}

// KNN returns the k nearest points to q in ascending distance order.
func (z *Index) KNN(q core.Point, k int) []core.PV {
	if q.Dim() != z.dim {
		return nil
	}
	return core.KNNByWindow(q, k, len(z.codes), z.side, z.Search)
}

// Stats reports structure statistics.
func (z *Index) Stats() core.Stats {
	st := z.ix.Stats()
	return core.Stats{
		Name:       "zm-" + string(z.cfg.Curve),
		Count:      len(z.codes),
		IndexBytes: st.IndexBytes + 8*len(z.codes),
		DataBytes:  len(z.codes) * (8*z.dim + 8),
		Height:     st.Height,
		Models:     st.Models,
	}
}
