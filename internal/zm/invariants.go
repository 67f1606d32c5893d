package zm

import "fmt"

// CheckInvariants verifies the ZM-index: the search level lies in 1..Bits,
// and the engine's column holds every point's curve code, in order (see
// core.Projected.CheckInvariants). It is O(n) and intended for tests.
func (z *Index) CheckInvariants() error {
	if z.level < 1 || z.level > z.cfg.Bits {
		return fmt.Errorf("zm: search level %d outside 1..%d", z.level, z.cfg.Bits)
	}
	if err := z.Projected.CheckInvariants(z.code); err != nil {
		return fmt.Errorf("zm: %w", err)
	}
	return nil
}
