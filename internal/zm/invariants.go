package zm

import "fmt"

// CheckInvariants verifies the ZM-index: the search level lies in 1..Bits,
// the stored curve codes are sorted, every code matches the re-encoding of
// its point, the parallel arrays agree in length, and the underlying
// PGM-index both satisfies its own invariants and maps every code to the
// correct array position. It is O(n log n) and intended for tests.
func (z *Index) CheckInvariants() error {
	if z.level < 1 || z.level > z.cfg.Bits {
		return fmt.Errorf("zm: search level %d outside 1..%d", z.level, z.cfg.Bits)
	}
	if len(z.codes) != z.pts.Len() {
		return fmt.Errorf("zm: %d codes for %d points", len(z.codes), z.pts.Len())
	}
	for i := range z.codes {
		if i > 0 && z.codes[i] < z.codes[i-1] {
			return fmt.Errorf("zm: codes out of order at %d", i)
		}
		if got := z.code(z.pts.At(i)); got != z.codes[i] {
			return fmt.Errorf("zm: stored code %d at %d, re-encoding gives %d", z.codes[i], i, got)
		}
	}
	if err := z.ix.CheckInvariants(); err != nil {
		return fmt.Errorf("zm: underlying pgm: %w", err)
	}
	// The learned index must land LowerBound(code) at the first occurrence
	// of that code in the sorted array.
	for i := range z.codes {
		if i > 0 && z.codes[i] == z.codes[i-1] {
			continue
		}
		if got := z.ix.LowerBound(z.codes[i]); got != i {
			return fmt.Errorf("zm: LowerBound(%d) = %d, want %d", z.codes[i], got, i)
		}
	}
	return nil
}
