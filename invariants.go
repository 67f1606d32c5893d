package lix

import (
	"fmt"
)

// InvariantChecker is the optional self-check hook an index implementation
// may expose. Implementations validate their own structural invariants —
// the PGM ε-bound, ALEX's gapped-array ordering, LIPP's precise positions,
// B+-tree separators and leaf chain, R-tree MBR containment — and return a
// descriptive error on the first violation. Checks are O(n) and meant for
// tests and debugging, not production hot paths; the conformance suite in
// internal/conform calls them between differential-testing operations.
type InvariantChecker interface {
	CheckInvariants() error
}

// CheckInvariants runs ix's structural self-check if it exposes one and
// returns nil otherwise. The builders by kind name (Build1D,
// BuildMutable1D, BuildSpatial) hand out the internal index types
// themselves, so a CheckInvariants method added to an internal index is
// reachable here with no change to this package.
func CheckInvariants(ix any) error {
	if c, ok := ix.(InvariantChecker); ok {
		return c.CheckInvariants()
	}
	return nil
}

// CheckInvariants verifies the sorted-array baseline: parallel arrays of
// equal length with strictly ascending keys.
func (s *sortedArray) CheckInvariants() error {
	if len(s.keys) != len(s.recs) {
		return fmt.Errorf("sorted-array: %d keys for %d records", len(s.keys), len(s.recs))
	}
	for i := range s.keys {
		if i > 0 && s.keys[i] <= s.keys[i-1] {
			return fmt.Errorf("sorted-array: keys not strictly ascending at %d", i)
		}
		if s.keys[i] != s.recs[i].Key {
			return fmt.Errorf("sorted-array: keys[%d] != recs[%d].Key", i, i)
		}
	}
	return nil
}
