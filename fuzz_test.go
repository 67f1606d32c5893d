package lix_test

import (
	mathbits "math/bits"
	"sort"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/segment"
	"github.com/lix-go/lix/internal/sfc"
)

// FuzzLearnedLowerBound feeds arbitrary byte strings decoded as key sets
// and probes into the learned 1-D indexes and cross-checks LowerBound-
// dependent behavior (Get and Range) against the sorted-array reference.
//
// Run with: go test -fuzz=FuzzLearnedLowerBound -fuzztime=30s .
func FuzzLearnedLowerBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint64(5))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0}, uint64(1)<<63)
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, probe uint64) {
		// Decode raw into a key set (8 bytes per key, little-endian-ish).
		var keys []lix.Key
		for i := 0; i+8 <= len(raw) && len(keys) < 512; i += 8 {
			var k uint64
			for j := 0; j < 8; j++ {
				k = k<<8 | uint64(raw[i+j])
			}
			keys = append(keys, lix.Key(k))
		}
		if len(keys) == 0 {
			return
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		// Dedup (map semantics).
		recs := make([]lix.KV, 0, len(keys))
		for i, k := range keys {
			if i > 0 && keys[i-1] == k {
				continue
			}
			recs = append(recs, lix.KV{Key: k, Value: lix.Value(i)})
		}
		ref, err := lix.Build1D("binary", recs)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"rmi", "pgm", "radixspline", "histtree"} {
			ix, err := lix.Build1D(kind, recs)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			v1, ok1 := ix.Get(lix.Key(probe))
			v2, ok2 := ref.Get(lix.Key(probe))
			if ok1 != ok2 || (ok1 && v1 != v2) {
				t.Fatalf("%s: Get(%d) = %d,%v, ref %d,%v", kind, probe, v1, ok1, v2, ok2)
			}
			// Range around the probe.
			lo, hi := lix.Key(probe), lix.Key(probe)+1024
			if hi < lo {
				hi = ^lix.Key(0)
			}
			n1 := ix.Range(lo, hi, func(lix.Key, lix.Value) bool { return true })
			n2 := ref.Range(lo, hi, func(lix.Key, lix.Value) bool { return true })
			if n1 != n2 {
				t.Fatalf("%s: Range(%d,%d) = %d, ref %d", kind, lo, hi, n1, n2)
			}
		}
	})
}

// FuzzPLAErrorBound checks the ε guarantee of both PLA builders on
// arbitrary monotone inputs.
//
// Run with: go test -fuzz=FuzzPLAErrorBound -fuzztime=30s .
func FuzzPLAErrorBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 201, 202}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, epsRaw uint8) {
		if len(raw) == 0 {
			return
		}
		eps := float64(epsRaw%64) + 1
		// Build a monotone key sequence from cumulative byte gaps.
		xs := make([]float64, 0, len(raw))
		cur := 0.0
		for _, b := range raw {
			cur += float64(b)
			xs = append(xs, cur)
		}
		distinct, firstPos := segment.Dedup(xs)
		for name, build := range map[string]func([]float64, []float64, float64) []segment.Segment{
			"anchored": segment.BuildAnchored,
			"optimal":  segment.BuildOptimal,
		} {
			segs := build(distinct, firstPos, eps)
			if len(segs) == 0 {
				t.Fatalf("%s: no segments", name)
			}
			if segs[0].StartIdx != 0 || segs[len(segs)-1].EndIdx != len(distinct) {
				t.Fatalf("%s: does not tile input", name)
			}
			if e := segment.MaxError(distinct, firstPos, segs); e > eps+1e-6 {
				t.Fatalf("%s: error %g > eps %g", name, e, eps)
			}
		}
	})
}

// FuzzExponentialSearch cross-checks ExponentialSearch and
// ExponentialSearchKV against LowerBound from arbitrary start positions.
func FuzzExponentialSearch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint64(2), 1)
	f.Fuzz(func(t *testing.T, raw []byte, probe uint64, start int) {
		keys := make([]core.Key, 0, len(raw))
		recs := make([]core.KV, 0, len(raw))
		cur := core.Key(0)
		for i, b := range raw {
			cur += core.Key(b)
			keys = append(keys, cur)
			recs = append(recs, core.KV{Key: cur, Value: core.Value(i)})
		}
		want := core.LowerBound(keys, core.Key(probe))
		got := core.ExponentialSearch(keys, core.Key(probe), start)
		if got != want {
			t.Fatalf("ExponentialSearch(%d, start=%d) = %d, want %d", probe, start, got, want)
		}
		if got := core.ExponentialSearchKV(recs, core.Key(probe), start); got != want {
			t.Fatalf("ExponentialSearchKV(%d, start=%d) = %d, want %d", probe, start, got, want)
		}
	})
}

// FuzzSFCRangeDecompose feeds arbitrary rectangles through the Morton and
// Hilbert range decompositions and checks the covering contract both ways:
// every cell of the rectangle is covered by some interval, and walking the
// intervals and filtering decoded cells with ContainsCell reconstructs the
// rectangle's cell set exactly once (intervals must not overlap). The walks
// start at the smallest aligned cube that holds the rectangle, so a small
// rectangle starts deep in the curve; the Hilbert intervals must stay inside
// that cube's code span. The Morton decomposition is also run on the
// rectangle's cells at a coarser level, as the ZM-index searches: its
// intervals, widened back to the fine codes, must cover every cell.
//
// Run with: go test -fuzz=FuzzSFCRangeDecompose -fuzztime=30s .
func FuzzSFCRangeDecompose(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(2), uint8(10), uint8(12), uint8(8))
	f.Add(uint8(5), uint8(0), uint8(0), uint8(31), uint8(31), uint8(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(4))
	f.Add(uint8(4), uint8(3), uint8(5), uint8(20), uint8(9), uint8(3*16+5))
	f.Fuzz(func(t *testing.T, bitsRaw, x0, y0, x1, y1, budgetRaw uint8) {
		bits := uint(bitsRaw)%5 + 1 // 2..32 cells per dim: intervals stay enumerable
		side := uint32(1) << bits
		min := []uint32{uint32(x0) % side, uint32(y0) % side}
		max := []uint32{uint32(x1) % side, uint32(y1) % side}
		for d := 0; d < 2; d++ {
			if min[d] > max[d] {
				min[d], max[d] = max[d], min[d]
			}
		}
		maxRanges := int(budgetRaw)%16 + 1
		k := uint(budgetRaw/16) % bits // fine bits per dimension the coarse level drops

		morton, err := sfc.NewMorton(2, bits)
		if err != nil {
			t.Fatal(err)
		}
		hilbert, err := sfc.NewHilbert2D(bits)
		if err != nil {
			t.Fatal(err)
		}
		curves := map[string]struct {
			ranges  func() []sfc.Interval
			encode  func(x, y uint32) uint64
			decode  func(code uint64) (x, y uint32)
			maxCode uint64
		}{
			"morton": {
				ranges: func() []sfc.Interval { return morton.Ranges(nil, morton.Encode(min), morton.Encode(max), maxRanges) },
				encode: func(x, y uint32) uint64 { return morton.Encode([]uint32{x, y}) },
				decode: func(code uint64) (x, y uint32) {
					c := morton.Decode(code)
					return c[0], c[1]
				},
				maxCode: morton.MaxCode(),
			},
			"hilbert": {
				ranges: func() []sfc.Interval {
					return hilbert.Ranges(nil, [2]uint32{min[0], min[1]}, [2]uint32{max[0], max[1]}, maxRanges)
				},
				encode:  hilbert.Encode,
				decode:  func(code uint64) (x, y uint32) { return hilbert.Decode(code) },
				maxCode: hilbert.MaxCode(),
			},
		}
		for name, c := range curves {
			ivs := c.ranges()
			if len(ivs) > maxRanges {
				t.Fatalf("%s: %d intervals exceed budget %d", name, len(ivs), maxRanges)
			}
			for i, iv := range ivs {
				if iv.Lo > iv.Hi || iv.Hi > c.maxCode {
					t.Fatalf("%s: malformed interval %d: [%d, %d]", name, i, iv.Lo, iv.Hi)
				}
				if i > 0 && iv.Lo <= ivs[i-1].Hi {
					t.Fatalf("%s: intervals %d and %d not disjoint ascending", name, i-1, i)
				}
			}
			// Direction 1: every rectangle cell's code lies in some interval.
			for x := min[0]; x <= max[0]; x++ {
				for y := min[1]; y <= max[1]; y++ {
					code := c.encode(x, y)
					found := false
					for _, iv := range ivs {
						if code >= iv.Lo && code <= iv.Hi {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%s: cell (%d,%d) code %d not covered", name, x, y, code)
					}
				}
			}
			if name == "hilbert" {
				top := uint(mathbits.Len32((min[0] ^ max[0]) | (min[1] ^ max[1])))
				lo := c.encode(min[0], min[1]) &^ (1<<(2*top) - 1)
				if ivs[0].Lo < lo || ivs[len(ivs)-1].Hi > lo+1<<(2*top)-1 {
					t.Fatalf("%s: intervals %v leave the aligned square of side 2^%d from code %d", name, ivs, top, lo)
				}
			}
			// Direction 2: walking the intervals and filtering by
			// ContainsCell visits exactly the rectangle's cells, once each.
			want := int((max[0] - min[0] + 1) * (max[1] - min[1] + 1))
			got := 0
			for _, iv := range ivs {
				for code := iv.Lo; ; code++ {
					x, y := c.decode(code)
					if sfc.ContainsCell([]uint32{x, y}, min, max) {
						got++
					}
					if code == iv.Hi {
						break
					}
				}
			}
			if got != want {
				t.Fatalf("%s: interval walk yielded %d in-rect cells, want %d", name, got, want)
			}
		}
		s := 2 * k
		coarse := morton.Ranges(nil, morton.Encode(min)>>s, morton.Encode(max)>>s, maxRanges)
		if len(coarse) > maxRanges {
			t.Fatalf("level %d: %d intervals exceed budget %d", bits-k, len(coarse), maxRanges)
		}
		for x := min[0]; x <= max[0]; x++ {
			for y := min[1]; y <= max[1]; y++ {
				code, found := morton.Encode([]uint32{x, y}), false
				for _, iv := range coarse {
					found = found || code >= iv.Lo<<s && code <= iv.Hi<<s|(1<<s-1)
				}
				if !found {
					t.Fatalf("level %d: cell (%d,%d) code %d not covered by %v", bits-k, x, y, code, coarse)
				}
			}
		}
	})
}

// FuzzPLASegments checks the structural contract of both PLA builders on
// arbitrary monotone inputs: segments tile the input contiguously, their
// key ranges are consistent and ascending, Locate finds the covering
// segment for every distinct key, and the ε bound holds.
//
// Run with: go test -fuzz=FuzzPLASegments -fuzztime=30s .
func FuzzPLASegments(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 201, 202}, uint8(4))
	f.Add([]byte{0, 0, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, epsRaw uint8) {
		if len(raw) == 0 {
			return
		}
		eps := float64(epsRaw%64) + 1
		xs := make([]float64, 0, len(raw))
		cur := 0.0
		for _, b := range raw {
			cur += float64(b)
			xs = append(xs, cur)
		}
		distinct, firstPos := segment.Dedup(xs)
		for name, build := range map[string]func([]float64, []float64, float64) []segment.Segment{
			"anchored": segment.BuildAnchored,
			"optimal":  segment.BuildOptimal,
		} {
			segs := build(distinct, firstPos, eps)
			if len(segs) == 0 {
				t.Fatalf("%s: no segments", name)
			}
			prevEnd := 0
			for i, s := range segs {
				if s.StartIdx != prevEnd {
					t.Fatalf("%s: segment %d starts at %d, want %d (gap or overlap)", name, i, s.StartIdx, prevEnd)
				}
				if s.EndIdx <= s.StartIdx {
					t.Fatalf("%s: segment %d empty: [%d, %d)", name, i, s.StartIdx, s.EndIdx)
				}
				if s.FirstKey != distinct[s.StartIdx] || s.LastKey != distinct[s.EndIdx-1] {
					t.Fatalf("%s: segment %d key range [%g, %g] disagrees with covered keys [%g, %g]",
						name, i, s.FirstKey, s.LastKey, distinct[s.StartIdx], distinct[s.EndIdx-1])
				}
				if i > 0 && s.FirstKey <= segs[i-1].LastKey {
					t.Fatalf("%s: segment %d FirstKey %g not above previous LastKey %g",
						name, i, s.FirstKey, segs[i-1].LastKey)
				}
				prevEnd = s.EndIdx
			}
			if prevEnd != len(distinct) {
				t.Fatalf("%s: segments tile %d keys, input has %d", name, prevEnd, len(distinct))
			}
			for i, x := range distinct {
				si := segment.Locate(segs, x)
				if s := segs[si]; i < s.StartIdx || i >= s.EndIdx {
					t.Fatalf("%s: Locate(%g) = segment %d [%d, %d), key is at %d",
						name, x, si, s.StartIdx, s.EndIdx, i)
				}
			}
			if e := segment.MaxError(distinct, firstPos, segs); e > eps+1e-6 {
				t.Fatalf("%s: error %g > eps %g", name, e, eps)
			}
		}
	})
}
