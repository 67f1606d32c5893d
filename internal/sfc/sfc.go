// Package sfc implements space-filling curves — Z-order (Morton) for any
// dimensionality and the Hilbert curve for two dimensions — together with
// the quantization and range-decomposition machinery that projection-based
// learned multi-dimensional indexes (Approach 2 in the paper: ZM-index,
// LISA-style mappings) are built on.
//
// A curve maps a d-dimensional grid cell to a one-dimensional code; range
// queries decompose a query rectangle into a small set of code intervals
// that together cover exactly the cells intersecting the rectangle.
package sfc

import (
	"fmt"
	"math/bits"

	"github.com/lix-go/lix/internal/core"
)

// Quantizer maps float64 coordinates in a bounding box to grid cells of
// 2^bits cells per dimension.
type Quantizer struct {
	Min, Max []float64
	Bits     uint // bits per dimension
}

// NewQuantizer builds a quantizer over the given bounds. bits*dims must not
// exceed 63 so codes fit in a uint64 with a sign bit to spare.
func NewQuantizer(min, max []float64, bits uint) (*Quantizer, error) {
	if len(min) != len(max) || len(min) == 0 {
		return nil, fmt.Errorf("sfc: bad bounds dims %d/%d", len(min), len(max))
	}
	if bits == 0 || bits*uint(len(min)) > 63 {
		return nil, fmt.Errorf("sfc: bits=%d dims=%d exceeds 63 code bits", bits, len(min))
	}
	for i := range min {
		if !(min[i] < max[i]) {
			return nil, fmt.Errorf("sfc: empty bound in dim %d", i)
		}
	}
	return &Quantizer{Min: append([]float64(nil), min...), Max: append([]float64(nil), max...), Bits: bits}, nil
}

// Cells returns the number of cells per dimension.
func (q *Quantizer) Cells() uint64 { return 1 << q.Bits }

// Cell quantizes one coordinate in dimension d, clamping out-of-bounds
// values to the edge cells.
func (q *Quantizer) Cell(d int, v float64) uint32 {
	frac := (v - q.Min[d]) / (q.Max[d] - q.Min[d])
	c := int64(frac * float64(q.Cells()))
	if c < 0 {
		c = 0
	}
	if c >= int64(q.Cells()) {
		c = int64(q.Cells()) - 1
	}
	return uint32(c)
}

// CellPoint quantizes a full point.
func (q *Quantizer) CellPoint(p core.Point) []uint32 {
	out := make([]uint32, len(p))
	for d := range p {
		out[d] = q.Cell(d, p[d])
	}
	return out
}

// CellLo returns the lowest coordinate value mapping into cell c of dim d.
func (q *Quantizer) CellLo(d int, c uint32) float64 {
	return q.Min[d] + float64(c)/float64(q.Cells())*(q.Max[d]-q.Min[d])
}

// ---------------------------------------------------------------------------
// Morton (Z-order) curve
// ---------------------------------------------------------------------------

// Morton interleaves the bits of d coordinates, bits per dimension, into a
// single code. Dimension 0 contributes the highest bit of each group.
type Morton struct {
	Dims int
	Bits uint
	// lane has the code bits of the last dimension set: bits 0, Dims,
	// 2*Dims, ... Dimension d's bits are lane << (Dims-1-d). Masking a code
	// to one dimension's bits keeps that dimension's order, so box tests
	// run on codes without decoding them.
	lane uint64
	// spread[v] is the lane's share of the byte v: bit b of v at bit
	// b*Dims. Dimension d's share of a cell is its bytes' entries, each
	// shifted by the byte's place and by Dims-1-d.
	spread [256]uint64
}

// NewMorton validates and returns a Morton curve.
func NewMorton(dims int, bits uint) (*Morton, error) {
	if dims < 1 || bits == 0 || bits*uint(dims) > 63 {
		return nil, fmt.Errorf("sfc: invalid morton dims=%d bits=%d", dims, bits)
	}
	m := &Morton{Dims: dims, Bits: bits}
	for b := uint(0); b < bits; b++ {
		m.lane |= 1 << (b * uint(dims))
	}
	for v := range m.spread {
		for b := uint(0); b < min(8, bits); b++ {
			m.spread[v] |= uint64(v>>b&1) << (b * uint(dims))
		}
	}
	return m, nil
}

// Spread returns the contribution of dimension d's cell c (below 2^Bits) to a
// code; a point's code is the OR of its dimensions' contributions.
func (m *Morton) Spread(d int, c uint32) uint64 {
	var z uint64
	// c < 2^Bits and Bits*Dims <= 63 keep every shift below 64.
	for shift := uint(0); c != 0; shift += 8 * uint(m.Dims) {
		z |= m.spread[c&0xff] << shift
		c >>= 8
	}
	return z << uint(m.Dims-1-d)
}

// Encode interleaves coords (one per dimension, each < 2^Bits) into a code.
func (m *Morton) Encode(coords []uint32) uint64 {
	var z uint64
	for d, c := range coords {
		z |= m.Spread(d, c)
	}
	return z
}

// Decode splits code z back into coordinates.
func (m *Morton) Decode(z uint64) []uint32 {
	coords := make([]uint32, m.Dims)
	m.DecodeInto(z, coords)
	return coords
}

// DecodeInto splits code z into the provided slice.
func (m *Morton) DecodeInto(z uint64, coords []uint32) {
	for d := range coords {
		coords[d] = 0
	}
	shift := int(m.Bits)*m.Dims - 1
	for b := int(m.Bits) - 1; b >= 0; b-- {
		for d := 0; d < m.Dims; d++ {
			coords[d] |= uint32((z>>uint(shift))&1) << uint(b)
			shift--
		}
	}
}

// MaxCode returns the largest representable code.
func (m *Morton) MaxCode() uint64 {
	return (uint64(1) << (m.Bits * uint(m.Dims))) - 1
}

// boxRel places the code span [lo, hi] — one cell (lo == hi) or an aligned
// cube — against the box whose corner cells have codes zmin and zmax.
func (m *Morton) boxRel(lo, hi, zmin, zmax uint64) (disjoint, contained bool) {
	contained = true
	for d := 0; d < m.Dims; d++ {
		mask := m.lane << uint(d)
		l, h, bl, bh := lo&mask, hi&mask, zmin&mask, zmax&mask
		if l > bh || h < bl {
			return true, false
		}
		if l < bl || h > bh {
			contained = false
		}
	}
	return false, contained
}

// InBox reports whether the cell with code z lies in the box whose corner
// cells have codes zmin and zmax.
func (m *Morton) InBox(z, zmin, zmax uint64) bool {
	_, in := m.boxRel(z, z, zmin, zmax)
	return in
}

// BigMin returns the smallest code greater than z whose cell lies in the
// box [zmin, zmax] (Tropf & Herzog's BIGMIN). z must lie strictly between
// zmin and zmax with its cell outside the box; a Z-order scan that meets
// such a code resumes at BigMin and skips nothing that is in the box.
func (m *Morton) BigMin(z, zmin, zmax uint64) uint64 {
	var bigmin uint64
	// Above the highest bit where the three differ every step is a no-op.
	for b := bits.Len64((z^zmin)|(z^zmax)) - 1; b >= 0; b-- {
		bit := uint64(1) << uint(b)
		// The lower bits of the dimension that owns bit b.
		low := m.lane << (uint(b) % uint(m.Dims)) & (bit - 1)
		switch zb, minb, maxb := z&bit != 0, zmin&bit != 0, zmax&bit != 0; {
		case !zb && !minb && maxb:
			// The box straddles this bit and z is in the lower half: the
			// answer is in the lower half if the search below finds one,
			// else the first box code of the upper half.
			bigmin = zmin&^low | bit
			zmax = zmax&^bit | low
		case !zb && minb:
			return zmin // the whole box lies above z
		case zb && !maxb:
			return bigmin // the whole box lies below z in this half
		case zb && !minb:
			zmin = zmin&^low | bit // z is in the upper half: raise the box
		}
	}
	return bigmin
}

// Interval is an inclusive range of curve codes.
type Interval struct {
	Lo, Hi uint64
}

// Ranges decomposes the box whose corner cells have codes zmin and zmax
// into at most maxRanges code intervals, appended to buf[:0], whose union
// covers every cell in the box. Intervals may over-approximate (cover
// cells outside the box) when the budget is too small for an exact
// decomposition, but never beyond [zmin, zmax], the box's lowest and highest
// codes; callers filter, or skip ahead with BigMin. The codes may be those
// of any coarser level of the grid, Bits-k bits per dimension: a cell's code
// shifted right by Dims*k is the code of its level-(Bits-k) cell.
func (m *Morton) Ranges(buf []Interval, zmin, zmax uint64, maxRanges int) []Interval {
	// The box lies in the smallest aligned cube that holds both corners.
	top := (uint(bits.Len64(zmin^zmax)) + uint(m.Dims) - 1) / uint(m.Dims)
	out := decompose(buf, uint(m.Dims), top, zmin, maxRanges, func(lo, hi uint64) (bool, bool) {
		return m.boxRel(lo, hi, zmin, zmax)
	})
	if len(out) > 0 { // an inverted box has no cells
		out[0].Lo, out[len(out)-1].Hi = zmin, zmax
	}
	return out
}

// decompose is the range decomposition of both curves. On either, the
// aligned cubes of side 2^level cells are the aligned code spans of
// 2^(level*dims) codes, so the walk runs in code space and asks rel where a
// span's cube lies against the query box. It is a depth-first walk over that
// implicit 2^dims-ary tree, rooted at the cube of side 2^top that holds code
// at, without a stack: a node's first child starts at the node's own first
// code, and the node after a finished subtree starts at the next code, on the
// highest level that code is aligned to. A node is emitted whole when it is
// inside the box, a single cell, or the budget is spent; a node emitted next
// to the last one extends it. Rooted at a cube that holds the whole box, the
// walk emits what a walk from the curve's root would: every cube on the way
// down to it but the one it descends into lies outside the box.
func decompose(buf []Interval, dims, top uint, at uint64, maxRanges int, rel func(lo, hi uint64) (disjoint, contained bool)) []Interval {
	maxRanges = max(maxRanges, 1)
	budget, out := maxRanges, buf[:0]
	span := uint64(1)<<(top*dims) - 1
	for lo, level := at&^span, top; ; {
		hi := lo + 1<<(level*dims) - 1
		if disjoint, contained := rel(lo, hi); !disjoint {
			if !contained && level > 0 && budget > 1 {
				level--
				continue
			}
			if n := len(out); n > 0 && out[n-1].Hi+1 == lo {
				out[n-1].Hi = hi
			} else {
				out = append(out, Interval{lo, hi})
				budget--
			}
		}
		if hi == at|span {
			return coalesce(out, maxRanges)
		}
		lo = hi + 1
		for level < top && lo&(1<<((level+1)*dims)-1) == 0 {
			level++
		}
	}
}

// coalesce merges intervals across the smallest code gaps until at most
// maxRanges remain. The result covers a superset of the input, so callers
// that filter decoded cells stay exact.
func coalesce(ivs []Interval, maxRanges int) []Interval {
	for len(ivs) > maxRanges {
		// Find the adjacent pair with the smallest gap and merge it.
		best := 1
		bestGap := ivs[1].Lo - ivs[0].Hi
		for i := 2; i < len(ivs); i++ {
			if g := ivs[i].Lo - ivs[i-1].Hi; g < bestGap {
				best, bestGap = i, g
			}
		}
		ivs[best-1].Hi = ivs[best].Hi
		ivs = append(ivs[:best], ivs[best+1:]...)
	}
	return ivs
}

// ContainsCell reports whether decoded cell coords lie in [min, max].
func ContainsCell(coords, min, max []uint32) bool {
	for d := range coords {
		if coords[d] < min[d] || coords[d] > max[d] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Hilbert curve (2-D)
// ---------------------------------------------------------------------------

// Hilbert2D maps 2-D grid cells to Hilbert curve positions. Unlike Z-order,
// consecutive codes are always adjacent cells, which reduces the number of
// intervals a range query decomposes into.
type Hilbert2D struct {
	Bits uint
}

// NewHilbert2D validates and returns a Hilbert curve with bits per
// dimension (2*bits <= 62).
func NewHilbert2D(bits uint) (*Hilbert2D, error) {
	if bits == 0 || bits > 31 {
		return nil, fmt.Errorf("sfc: invalid hilbert bits=%d", bits)
	}
	return &Hilbert2D{Bits: bits}, nil
}

// Encode maps cell (x, y) to its Hilbert index.
func (h *Hilbert2D) Encode(x, y uint32) uint64 {
	var rx, ry uint32
	var d uint64
	n := uint32(1) << h.Bits
	for s := n / 2; s > 0; s /= 2 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// Decode maps a Hilbert index back to cell (x, y).
func (h *Hilbert2D) Decode(d uint64) (x, y uint32) {
	var rx, ry uint32
	t := d
	n := uint64(1) << h.Bits
	for s := uint64(1); s < n; s *= 2 {
		rx = uint32(1 & (t / 2))
		ry = uint32(1 & (t ^ uint64(rx)))
		// Rotate.
		if ry == 0 {
			if rx == 1 {
				x = uint32(s) - 1 - x
				y = uint32(s) - 1 - y
			}
			x, y = y, x
		}
		x += uint32(s) * rx
		y += uint32(s) * ry
		t /= 4
	}
	return x, y
}

// MaxCode returns the largest representable Hilbert index.
func (h *Hilbert2D) MaxCode() uint64 { return (uint64(1) << (2 * h.Bits)) - 1 }

// Ranges decomposes the rectangle [min, max] (inclusive cell coords) into
// at most maxRanges Hilbert index intervals covering it, by the same
// quadrant walk as Morton.Ranges, rooted at the smallest aligned square that
// holds both corners: one quadrant of the recursion.
func (h *Hilbert2D) Ranges(min, max [2]uint32, maxRanges int) []Interval {
	top := uint(bits.Len32((min[0] ^ max[0]) | (min[1] ^ max[1])))
	return decompose(nil, 2, top, h.Encode(min[0], min[1]), maxRanges, func(lo, hi uint64) (disjoint, contained bool) {
		// An aligned span of 4^level codes is one quadrant of the Hilbert
		// recursion: the aligned square around any of its cells.
		side := uint32(1)<<(bits.Len64(hi-lo)/2) - 1
		x, y := h.Decode(lo)
		x, y = x&^side, y&^side
		return x > max[0] || x+side < min[0] || y > max[1] || y+side < min[1],
			x >= min[0] && x+side <= max[0] && y >= min[1] && y+side <= max[1]
	})
}
