package mlindex

import "fmt"

// CheckInvariants verifies the ML-Index: the keys ascend and the key column
// and the point store agree in length, every stored point's key is the key
// of its nearest reference, its sector and its distance, every
// sub-partition's maxDist bounds its members' distances, and the
// underlying PGM-index satisfies its own invariants. It is O(n·refs) and
// intended for tests.
func (m *Index) CheckInvariants() error {
	if len(m.keys) != m.pts.Len() {
		return fmt.Errorf("mlindex: %d keys for %d points", len(m.keys), m.pts.Len())
	}
	if len(m.maxDist) != len(m.refs)*2*m.dim {
		return fmt.Errorf("mlindex: %d sub-partition radii for %d references in %d dimensions", len(m.maxDist), len(m.refs), m.dim)
	}
	for i, k := range m.keys {
		if i > 0 && k < m.keys[i-1] {
			return fmt.Errorf("mlindex: keys out of order at %d", i)
		}
		sub, d := m.place(m.pts.At(i))
		if want := m.key(sub, d); k != want {
			return fmt.Errorf("mlindex: stored key %#x at %d, its point maps to %#x (sub-partition %d)", k, i, want, sub)
		}
		if d > m.maxDist[sub] {
			return fmt.Errorf("mlindex: point %d lies %g from its reference, beyond sub-partition %d's maxDist %g", i, d, sub, m.maxDist[sub])
		}
	}
	if err := m.ix.CheckInvariants(); err != nil {
		return fmt.Errorf("mlindex: underlying pgm: %w", err)
	}
	return nil
}
