package sfc

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lix-go/lix/internal/core"
)

func TestQuantizer(t *testing.T) {
	q, err := NewQuantizer([]float64{0, 0}, []float64{100, 10}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cells() != 16 {
		t.Fatalf("cells = %d", q.Cells())
	}
	if c := q.Cell(0, 0); c != 0 {
		t.Fatalf("Cell(0,0) = %d", c)
	}
	if c := q.Cell(0, 99.999); c != 15 {
		t.Fatalf("Cell(0,99.999) = %d", c)
	}
	// Clamping.
	if c := q.Cell(0, -5); c != 0 {
		t.Fatalf("clamp low = %d", c)
	}
	if c := q.Cell(0, 500); c != 15 {
		t.Fatalf("clamp high = %d", c)
	}
	cp := q.CellPoint(core.Point{50, 5})
	if cp[0] != 8 || cp[1] != 8 {
		t.Fatalf("CellPoint = %v", cp)
	}
	if lo := q.CellLo(0, 8); lo != 50 {
		t.Fatalf("CellLo = %g", lo)
	}
}

func TestQuantizerErrors(t *testing.T) {
	if _, err := NewQuantizer([]float64{0}, []float64{1, 2}, 4); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := NewQuantizer(nil, nil, 4); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewQuantizer([]float64{0, 0}, []float64{1, 1}, 32); err == nil {
		t.Fatal("64-bit code accepted")
	}
	if _, err := NewQuantizer([]float64{1}, []float64{1}, 4); err == nil {
		t.Fatal("empty interval accepted")
	}
}

func TestMortonRoundTrip(t *testing.T) {
	for _, cfg := range []struct {
		dims int
		bits uint
	}{{2, 16}, {3, 10}, {4, 8}, {2, 31}} {
		m, err := NewMorton(cfg.dims, cfg.bits)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(cfg.dims)))
		for i := 0; i < 500; i++ {
			coords := make([]uint32, cfg.dims)
			for d := range coords {
				coords[d] = uint32(r.Int63n(1 << cfg.bits))
			}
			z := m.Encode(coords)
			if z > m.MaxCode() {
				t.Fatalf("code %d exceeds max %d", z, m.MaxCode())
			}
			back := m.Decode(z)
			for d := range coords {
				if back[d] != coords[d] {
					t.Fatalf("roundtrip %v -> %d -> %v", coords, z, back)
				}
			}
		}
	}
	if _, err := NewMorton(0, 8); err == nil {
		t.Fatal("0 dims accepted")
	}
	if _, err := NewMorton(2, 32); err == nil {
		t.Fatal("oversized accepted")
	}
}

func TestMortonOrderIsZOrder(t *testing.T) {
	// Classic 2x2 Z shape with dim0 as most significant:
	// (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3.
	m, _ := NewMorton(2, 1)
	got := []uint64{
		m.Encode([]uint32{0, 0}), m.Encode([]uint32{0, 1}),
		m.Encode([]uint32{1, 0}), m.Encode([]uint32{1, 1}),
	}
	for i, want := range []uint64{0, 1, 2, 3} {
		if got[i] != want {
			t.Fatalf("z order = %v", got)
		}
	}
}

func TestMortonMonotoneInPrefix(t *testing.T) {
	// Increasing one coordinate with the other at 0 increases the code.
	m, _ := NewMorton(2, 8)
	prev := uint64(0)
	for x := uint32(1); x < 256; x++ {
		z := m.Encode([]uint32{x, 0})
		if z <= prev {
			t.Fatalf("not monotone at x=%d", x)
		}
		prev = z
	}
}

// rangesCoverExactly checks that the decomposition covers every cell in the
// rect and, when exact, no cell outside.
func checkRanges(t *testing.T, m *Morton, min, max []uint32, ivs []Interval, exact bool) {
	t.Helper()
	// Intervals must be sorted and non-overlapping.
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Lo <= ivs[i-1].Hi {
			t.Fatalf("intervals overlap or unsorted: %v", ivs)
		}
	}
	inIv := func(z uint64) bool {
		for _, iv := range ivs {
			if z >= iv.Lo && z <= iv.Hi {
				return true
			}
		}
		return false
	}
	// Every cell in the rect must be covered.
	coords := make([]uint32, m.Dims)
	var rec func(d int)
	var missing int
	rec = func(d int) {
		if d == m.Dims {
			if !inIv(m.Encode(coords)) {
				missing++
			}
			return
		}
		for c := min[d]; c <= max[d]; c++ {
			coords[d] = c
			rec(d + 1)
		}
	}
	rec(0)
	if missing > 0 {
		t.Fatalf("%d cells uncovered", missing)
	}
	if exact {
		// No interval point decodes outside the rect.
		for _, iv := range ivs {
			for z := iv.Lo; z <= iv.Hi; z++ {
				if !ContainsCell(m.Decode(z), min, max) {
					t.Fatalf("code %d decodes outside rect", z)
				}
			}
		}
	}
}

func TestMortonRangesExact(t *testing.T) {
	m, _ := NewMorton(2, 5) // 32x32 grid
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		x0, y0 := uint32(r.Intn(32)), uint32(r.Intn(32))
		x1, y1 := x0+uint32(r.Intn(int(32-x0))), y0+uint32(r.Intn(int(32-y0)))
		min := []uint32{x0, y0}
		max := []uint32{x1, y1}
		ivs := m.Ranges(nil, m.Encode(min), m.Encode(max), 1<<20) // effectively unlimited budget
		checkRanges(t, m, min, max, ivs, true)
	}
}

func TestMortonRangesBudget(t *testing.T) {
	m, _ := NewMorton(2, 6)
	min := []uint32{3, 5}
	max := []uint32{40, 33}
	for _, budget := range []int{1, 2, 4, 8} {
		ivs := m.Ranges(nil, m.Encode(min), m.Encode(max), budget)
		if len(ivs) > budget {
			t.Fatalf("budget %d produced %d intervals", budget, len(ivs))
		}
		checkRanges(t, m, min, max, ivs, false)
	}
}

func TestMortonRanges3D(t *testing.T) {
	m, _ := NewMorton(3, 4)
	min := []uint32{1, 2, 3}
	max := []uint32{9, 11, 7}
	ivs := m.Ranges(nil, m.Encode(min), m.Encode(max), 1<<20)
	checkRanges(t, m, min, max, ivs, true)
}

func TestHilbertRoundTrip(t *testing.T) {
	h, err := NewHilbert2D(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for x := uint32(0); x < 256; x += 3 {
		for y := uint32(0); y < 256; y += 3 {
			d := h.Encode(x, y)
			if d > h.MaxCode() {
				t.Fatalf("code %d > max", d)
			}
			if seen[d] {
				t.Fatalf("duplicate code %d", d)
			}
			seen[d] = true
			bx, by := h.Decode(d)
			if bx != x || by != y {
				t.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", x, y, d, bx, by)
			}
		}
	}
	if _, err := NewHilbert2D(0); err == nil {
		t.Fatal("0 bits accepted")
	}
	if _, err := NewHilbert2D(32); err == nil {
		t.Fatal("32 bits accepted")
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property: consecutive codes are adjacent cells
	// (Chebyshev distance 1 in 4-neighborhood -> Manhattan distance 1).
	h, _ := NewHilbert2D(5)
	px, py := h.Decode(0)
	for d := uint64(1); d <= h.MaxCode(); d++ {
		x, y := h.Decode(d)
		manhattan := abs32(x, px) + abs32(y, py)
		if manhattan != 1 {
			t.Fatalf("codes %d,%d map to non-adjacent cells (%d,%d)-(%d,%d)", d-1, d, px, py, x, y)
		}
		px, py = x, y
	}
}

func abs32(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHilbertRanges(t *testing.T) {
	h, _ := NewHilbert2D(5)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 30; i++ {
		x0, y0 := uint32(r.Intn(32)), uint32(r.Intn(32))
		x1, y1 := x0+uint32(r.Intn(int(32-x0))), y0+uint32(r.Intn(int(32-y0)))
		ivs := h.Ranges(nil, [2]uint32{x0, y0}, [2]uint32{x1, y1}, 1<<20)
		for j := 1; j < len(ivs); j++ {
			if ivs[j].Lo <= ivs[j-1].Hi {
				t.Fatalf("hilbert intervals overlap: %v", ivs)
			}
		}
		inIv := func(d uint64) bool {
			for _, iv := range ivs {
				if d >= iv.Lo && d <= iv.Hi {
					return true
				}
			}
			return false
		}
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				if !inIv(h.Encode(x, y)) {
					t.Fatalf("cell (%d,%d) uncovered", x, y)
				}
			}
		}
		// Exactness.
		for _, iv := range ivs {
			for d := iv.Lo; d <= iv.Hi; d++ {
				x, y := h.Decode(d)
				if x < x0 || x > x1 || y < y0 || y > y1 {
					t.Fatalf("code %d decodes outside rect", d)
				}
			}
		}
	}
}

func TestHilbertFewerRangesThanMorton(t *testing.T) {
	// Hilbert's locality should give no more intervals than Z-order for
	// typical window queries; verify on a batch.
	h, _ := NewHilbert2D(6)
	m, _ := NewMorton(2, 6)
	r := rand.New(rand.NewSource(8))
	hTotal, mTotal := 0, 0
	for i := 0; i < 40; i++ {
		x0, y0 := uint32(r.Intn(48)), uint32(r.Intn(48))
		x1, y1 := x0+uint32(r.Intn(16)), y0+uint32(r.Intn(16))
		hTotal += len(h.Ranges(nil, [2]uint32{x0, y0}, [2]uint32{x1, y1}, 1<<20))
		mTotal += len(m.Ranges(nil, m.Encode([]uint32{x0, y0}), m.Encode([]uint32{x1, y1}), 1<<20))
	}
	if hTotal > mTotal {
		t.Fatalf("hilbert intervals %d > morton %d in aggregate", hTotal, mTotal)
	}
}

// Property: Morton encode/decode are inverse for random input.
func TestMortonProperty(t *testing.T) {
	m, _ := NewMorton(3, 12)
	f := func(a, b, c uint32) bool {
		coords := []uint32{a & 0xfff, b & 0xfff, c & 0xfff}
		back := m.Decode(m.Encode(coords))
		return back[0] == coords[0] && back[1] == coords[1] && back[2] == coords[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBigMinMatchesBruteForce is the property BIGMIN skip-ahead rests on:
// for a code between the box's corner codes whose cell is outside the box,
// BigMin is exactly the next code whose cell is inside, so a scan that
// jumps there skips no result. Checked in 2-D and 3-D by walking the codes.
func TestBigMinMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for _, c := range []struct {
		dims int
		bits uint
	}{{2, 5}, {3, 4}} {
		m, _ := NewMorton(c.dims, c.bits)
		side := 1 << c.bits
		checked := 0
		for box := 0; box < 200; box++ {
			min, max := make([]uint32, c.dims), make([]uint32, c.dims)
			for d := range min {
				a, b := uint32(r.Intn(side)), uint32(r.Intn(side))
				if a > b {
					a, b = b, a
				}
				min[d], max[d] = a, b
			}
			zmin, zmax := m.Encode(min), m.Encode(max)
			for try := 0; try < 20 && zmax-zmin > 1; try++ {
				z := zmin + 1 + uint64(r.Int63n(int64(zmax-zmin-1)))
				if ContainsCell(m.Decode(z), min, max) {
					if !m.InBox(z, zmin, zmax) {
						t.Fatalf("dims=%d box %v..%v: InBox(%d) = false for a cell inside", c.dims, min, max, z)
					}
					continue
				}
				if m.InBox(z, zmin, zmax) {
					t.Fatalf("dims=%d box %v..%v: InBox(%d) = true for a cell outside", c.dims, min, max, z)
				}
				want := z + 1
				for !ContainsCell(m.Decode(want), min, max) {
					want++ // zmax is inside the box and above z
				}
				got := m.BigMin(z, zmin, zmax)
				if got != want || got <= z {
					t.Fatalf("dims=%d box %v..%v: BigMin(%d) = %d, want %d", c.dims, min, max, z, got, want)
				}
				checked++
			}
		}
		if checked < 500 {
			t.Fatalf("dims=%d: only %d out-of-box codes checked", c.dims, checked)
		}
	}
}

// TestSpreadMatchesBitLoop holds the table-driven Spread to the per-bit
// interleave it replaced, for dims 1 to 8 at every legal bit width (a cell
// is a uint32, so at most 32 bits in one dimension), on the edge cells and
// on random ones.
func TestSpreadMatchesBitLoop(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for dims := 1; dims <= 8; dims++ {
		for bits := uint(1); bits*uint(dims) <= 63 && bits <= 32; bits++ {
			m, err := NewMorton(dims, bits)
			if err != nil {
				t.Fatal(err)
			}
			mask := uint64(1)<<bits - 1
			cells := []uint32{0, 1, uint32(mask), uint32(1) << (bits - 1)}
			for i := 0; i < 20; i++ {
				cells = append(cells, uint32(r.Uint64()&mask))
			}
			for d := 0; d < dims; d++ {
				for _, c := range cells {
					var want uint64
					for b := uint(0); b < bits; b++ {
						want |= uint64(c>>b&1) << (b*uint(dims) + uint(dims-1-d))
					}
					if got := m.Spread(d, c); got != want {
						t.Fatalf("dims=%d bits=%d d=%d cell %#x: Spread %#x, bit loop %#x", dims, bits, d, c, got, want)
					}
				}
			}
		}
	}
}

// TestRangesStartAtTheBoxCube is the differential test of the walk's start:
// rooted at the smallest aligned cube that holds the box, Morton.Ranges
// returns the intervals the walk from the curve's root returns, in 2-D, 3-D
// and 5-D at every budget; so does Hilbert2D.Ranges from its smallest
// aligned square, except at budget 1, where the root walk's one interval is
// the whole curve and the square's is the square.
func TestRangesStartAtTheBoxCube(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	budgets := []int{1, 2, 3, 8, 32, 1 << 20}
	for _, c := range []struct {
		dims int
		bits uint
	}{{2, 20}, {2, 6}, {3, 12}, {3, 4}, {5, 12}, {5, 3}} {
		m, _ := NewMorton(c.dims, c.bits)
		for box := 0; box < 300; box++ {
			min, max := make([]uint32, c.dims), make([]uint32, c.dims)
			for d := range min {
				// Boxes of every size: the low end of the side's range is
				// one cell, the high end the whole grid.
				side := uint32(r.Int63n(1 << r.Intn(int(c.bits)+1)))
				min[d] = uint32(r.Int63n(1<<c.bits - int64(side)))
				max[d] = min[d] + side
			}
			zmin, zmax := m.Encode(min), m.Encode(max)
			for _, budget := range budgets {
				if budget > 64 && c.bits > 6 {
					continue // an exact decomposition of a wide box is too long
				}
				want := decompose(nil, uint(c.dims), c.bits, 0, budget, func(lo, hi uint64) (bool, bool) {
					return m.boxRel(lo, hi, zmin, zmax)
				})
				want[0].Lo, want[len(want)-1].Hi = zmin, zmax
				if got := m.Ranges(nil, zmin, zmax, budget); !equalIntervals(got, want) {
					t.Fatalf("dims=%d bits=%d box %v..%v budget %d: %v, from the root %v", c.dims, c.bits, min, max, budget, got, want)
				}
			}
		}
	}
	h, _ := NewHilbert2D(10)
	for box := 0; box < 300; box++ {
		var min, max [2]uint32
		for d := range min {
			side := uint32(r.Int63n(1 << r.Intn(11)))
			min[d] = uint32(r.Int63n(1<<10 - int64(side)))
			max[d] = min[d] + side
		}
		for _, budget := range budgets[1:5] {
			want := decompose(nil, 2, h.Bits, 0, budget, func(lo, hi uint64) (bool, bool) {
				side := uint32(1)<<(bits.Len64(hi-lo)/2) - 1
				x, y := h.Decode(lo)
				x, y = x&^side, y&^side
				return x > max[0] || x+side < min[0] || y > max[1] || y+side < min[1],
					x >= min[0] && x+side <= max[0] && y >= min[1] && y+side <= max[1]
			})
			if got := h.Ranges(nil, min, max, budget); !equalIntervals(got, want) {
				t.Fatalf("hilbert box %v..%v budget %d: %v, from the root %v", min, max, budget, got, want)
			}
		}
		top := uint(bits.Len32((min[0] ^ max[0]) | (min[1] ^ max[1])))
		lo := h.Encode(min[0], min[1]) &^ (1<<(2*top) - 1)
		if got := h.Ranges(nil, min, max, 1); len(got) != 1 || got[0] != (Interval{lo, lo + 1<<(2*top) - 1}) {
			t.Fatalf("hilbert box %v..%v budget 1: %v, want the square's span from %d", min, max, got, lo)
		}
	}
}

func equalIntervals(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
