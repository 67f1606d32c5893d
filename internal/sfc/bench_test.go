package sfc

import "testing"

func BenchmarkMortonEncode2D(b *testing.B) {
	m, _ := NewMorton(2, 20)
	coords := []uint32{123456, 654321}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Encode(coords)
	}
	_ = sink
}

func BenchmarkHilbertEncode(b *testing.B) {
	h, _ := NewHilbert2D(20)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Encode(123456, 654321)
	}
	_ = sink
}

func BenchmarkMortonRanges(b *testing.B) {
	m, _ := NewMorton(2, 20)
	zmin := m.Encode([]uint32{10000, 20000})
	zmax := m.Encode([]uint32{30000, 25000})
	var buf [128]Interval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ivs := m.Ranges(buf[:0], zmin, zmax, 128); len(ivs) == 0 {
			b.Fatal("no intervals")
		}
	}
}
