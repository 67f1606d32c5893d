package mlindex

import (
	"fmt"
	"slices"
)

// CheckInvariants verifies the ML-Index: the engine's column holds every
// point's key, that of its nearest reference, its sector and its distance,
// in order (see core.Projected.CheckInvariants), and maxDist holds the
// bounds those keys give. It is O(n·refs) and intended for tests.
func (m *Index) CheckInvariants() error {
	if err := m.Projected.CheckInvariants(m.project); err != nil {
		return fmt.Errorf("mlindex: %w", err)
	}
	if r := m.radii(); !slices.Equal(r, m.maxDist) {
		return fmt.Errorf("mlindex: sub-partition radii %v, the keys bound them by %v", m.maxDist, r)
	}
	return nil
}
