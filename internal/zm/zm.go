// Package zm implements the ZM-index (Wang et al., MDM 2019): points are
// projected to one dimension with a Z-order (or Hilbert) space-filling
// curve, and the curve codes are the sorted key column of the projected
// engine (core.Projected), searched by binary search where the paper
// trains a learned one-dimensional index (EXPERIMENTS E17). Range queries
// decompose the query rectangle into curve intervals, seek each interval in
// the column, and filter the scanned points exactly. They run at the curve
// level, a coarser grid than the stored codes', that a cost model picks at
// build.
//
// Taxonomy: immutable / pure / projected space (Approach 2 in the paper).
package zm

import (
	"fmt"

	"github.com/lix-go/lix/internal/core"
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
	// Bits per dimension for quantization (0 selects the most the 32-bit
	// codes hold, 32/dim, at most 16; more than 32/dim is a build error).
	// Search runs at a level of at most Bits bits per dimension.
	Bits uint
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

// Index is an immutable ZM-index: the curve codes are the engine's keys.
type Index struct {
	core.Projected
	cfg    Config
	level  uint // bits per dimension Search decomposes and skips at, 1..cfg.Bits
	quant  *sfc.Quantizer
	morton *sfc.Morton
	hil    *sfc.Hilbert2D
}

// Build constructs a ZM-index over the points (copied and reordered).
func Build(pvs []core.PV, cfg Config) (*Index, error) {
	z := &Index{cfg: cfg}
	var sample []core.Rect
	err := z.Project(pvs, func(ext core.Rect) (func(core.Point) uint32, error) {
		sample = core.GridSample(pvs, ext)
		return z.code, z.curve(ext)
	})
	if err != nil {
		return nil, fmt.Errorf("zm: %w", err)
	}
	z.level = z.tune(sample)
	return z, nil
}

// curve fills in the config's defaults and sets up the quantizer over ext,
// the data's extent, and the curve.
func (z *Index) curve(ext core.Rect) (err error) {
	cfg, dim := &z.cfg, z.Dim
	if cfg.Curve == "" {
		cfg.Curve = CurveZ
	}
	if cfg.Curve == CurveHilbert && dim != 2 {
		return fmt.Errorf("hilbert curve requires dim 2, got %d", dim)
	}
	if cfg.Bits == 0 {
		cfg.Bits = min(uint(32/dim), 16)
	}
	if cfg.Bits > uint(32/dim) {
		return fmt.Errorf("%d bits per dimension do not fit %d dimensions in a 32-bit code", cfg.Bits, dim)
	}
	if cfg.MaxRanges <= 0 {
		cfg.MaxRanges = zMaxRanges
		if cfg.Curve == CurveHilbert {
			cfg.MaxRanges = hilbertMaxRanges
		}
	}
	// Slack for exact data bounds.
	for d := 0; d < dim; d++ {
		if !(ext.Max[d] > ext.Min[d]) {
			ext.Max[d] = ext.Min[d] + 1
		} else {
			ext.Max[d] += (ext.Max[d] - ext.Min[d]) * 1e-9 // make the top point interior
		}
	}
	if z.quant, err = sfc.NewQuantizer(ext.Min, ext.Max, cfg.Bits); err != nil {
		return err
	}
	switch cfg.Curve {
	case CurveZ:
		z.morton, err = sfc.NewMorton(dim, cfg.Bits)
	case CurveHilbert:
		z.hil, err = sfc.NewHilbert2D(cfg.Bits)
	default:
		return fmt.Errorf("unknown curve %q", cfg.Curve)
	}
	return err
}

// tune returns the level whose counted work over the sample is least, in
// the grids' units (core.GridModel): core.GridCellCost for each interval
// looked up and each BigMin jump, core.GridPointCost for each candidate
// handed to ScanRect. From Bits down, coarser levels take fewer steps and,
// on the Z-curve, never fewer candidates (a point whose cell lies in the box
// at one level lies in it at the next coarser one), so the work falls to
// one minimum and rises after it: the search bisects on its slope, counting
// a handful of levels. Over 500 k OSM-like points least squares of Search's
// time gave 374 ns a step against 8.5 ns a candidate outside the rectangle
// (two vCPUs, Go 1.24), which puts the same minimum where 32 does.
func (z *Index) tune(sample []core.Rect) uint {
	all := func(core.PV) bool { return true }
	work := map[uint]float64{}
	cost := func(level uint) float64 {
		if w, ok := work[level]; ok {
			return w
		}
		var cands, steps int
		for _, q := range sample {
			_, c, s := z.search(q, level, all)
			cands, steps = cands+c, steps+s
		}
		work[level] = core.GridCellCost*float64(steps) + core.GridPointCost*float64(cands)
		return work[level]
	}
	lo, hi := uint(1), z.cfg.Bits
	for lo < hi {
		if mid := (lo + hi) / 2; cost(mid) <= cost(mid+1) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Level returns the bits per dimension Search runs at: the level the cost
// model picked at build, or the one AtLevel set.
func (z *Index) Level() uint { return z.level }

// AtLevel returns a copy of the index that searches at level bits per
// dimension, 1 to Bits; it shares the codes and points with z.
func (z *Index) AtLevel(level uint) (*Index, error) {
	if level < 1 || level > z.cfg.Bits {
		return nil, fmt.Errorf("zm: level %d outside 1..%d", level, z.cfg.Bits)
	}
	c := *z
	c.level = level
	return &c, nil
}

// code projects p to its curve code, allocating nothing.
func (z *Index) code(p core.Point) uint32 {
	if z.morton == nil {
		return uint32(z.hil.Encode(z.quant.Cell(0, p[0]), z.quant.Cell(1, p[1])))
	}
	var c uint64
	for d := range p {
		c |= z.morton.Spread(d, z.quant.Cell(d, p[d]))
	}
	return uint32(c)
}

// Lookup returns the value of the point equal to p.
func (z *Index) Lookup(p core.Point) (core.Value, bool) {
	if p.Dim() != z.Dim {
		return 0, false
	}
	c := z.code(p)
	return z.Projected.Lookup(p, c, c)
}

// Search calls fn for every point in rect; fn returning false stops. It
// returns points visited and candidates scanned (points handed to the exact
// filter).
func (z *Index) Search(rect core.Rect, fn func(core.PV) bool) (visited, candidates int) {
	visited, candidates, _ = z.search(rect, z.level, fn)
	return visited, candidates
}

// search is Search at level bits per dimension. The box, its decomposition
// and the BigMin skips are over the cells of that level, whose codes are the
// stored codes shifted right by dim·(Bits−level): a code's top bits are the
// code of its coarse cell. steps counts the intervals and the BigMin jumps,
// each one search over the codes.
func (z *Index) search(rect core.Rect, level uint, fn func(core.PV) bool) (visited, candidates, steps int) {
	if rect.Dim() != z.Dim {
		return 0, 0, 0
	}
	k := z.cfg.Bits - level
	s := k * uint(z.Dim)
	var buf [zMaxRanges]sfc.Interval // a larger budget spills to the heap
	var ivs []sfc.Interval
	var zmin, zmax uint64
	if z.morton != nil {
		zmin, zmax = uint64(z.code(rect.Min)>>s), uint64(z.code(rect.Max)>>s)
		ivs = z.morton.Ranges(buf[:0], zmin, zmax, z.cfg.MaxRanges)
	} else {
		// The walk may run past its budget by three quadrants a level before
		// it coalesces, so this buffer holds that much at the default budget.
		var hbuf [hilbertMaxRanges + 3*16]sfc.Interval
		h := sfc.Hilbert2D{Bits: level}
		ivs = h.Ranges(hbuf[:0],
			[2]uint32{z.quant.Cell(0, rect.Min[0]) >> k, z.quant.Cell(1, rect.Min[1]) >> k},
			[2]uint32{z.quant.Cell(0, rect.Max[0]) >> k, z.quant.Cell(1, rect.Max[1]) >> k}, z.cfg.MaxRanges)
	}
	if len(ivs) == 0 {
		return 0, 0, 0 // a rectangle whose Min lies above its Max holds nothing
	}
	// inBox says whether a stored code's coarse cell can hold a result; the
	// Hilbert curve has no cheap test and filters every point of its
	// intervals.
	inBox := func(c uint64) bool { return z.morton == nil || z.morton.InBox(c>>s, zmin, zmax) }
	// One search of the column finds where the scan starts; from there every
	// move is forward, mostly by a few positions, and a seek from the current
	// one costs the logarithm of that distance.
	pos, n := z.LowerBound(uint32(ivs[0].Lo<<s)), len(z.Keys)
	for _, iv := range ivs {
		hi := iv.Hi<<s | (1<<s - 1) // the last stored code in the interval's cells
		pos = z.Seek(uint32(iv.Lo<<s), pos)
		for pos < n && uint64(z.Keys[pos]) <= hi {
			c := uint64(z.Keys[pos])
			if !inBox(c) {
				// The budget made this interval cover cells outside the
				// box: resume at the next code inside it.
				next := z.morton.BigMin(c>>s, zmin, zmax)
				if next > iv.Hi {
					break
				}
				pos = z.Seek(uint32(next<<s), pos)
				steps++
				continue
			}
			// The run goes on while its codes stay in the box; a code in the
			// cell of the one before it is, so only a new cell is tested.
			end, cell := pos+1, c|(1<<s-1)
			for ; end < n && uint64(z.Keys[end]) <= hi; end++ {
				if c := uint64(z.Keys[end]); c > cell {
					if !inBox(c) {
						break
					}
					cell = c | (1<<s - 1)
				}
			}
			m, cont := z.Pts.ScanRect(pos, end, rect, fn)
			visited, candidates = visited+m, candidates+end-pos
			if !cont {
				return visited, candidates, steps + len(ivs)
			}
			pos = end
		}
	}
	return visited, candidates, steps + len(ivs)
}

// KNN returns the k nearest points to q in ascending distance order.
func (z *Index) KNN(q core.Point, k int) []core.PV { return z.Projected.KNN(q, k, z.Search) }

// Stats reports structure statistics.
func (z *Index) Stats() core.Stats { return z.Projected.Stats("zm-"+string(z.cfg.Curve), 0, 0) }
