package alex

import (
	"fmt"

	"github.com/lix-go/lix/internal/core"
)

// CheckInvariants verifies the structural invariants of the ALEX tree: the
// gapped-array contract of every data node (the full slot array sorted —
// gap slots may carry stale keys after shifts, but never out of order — and
// occupied keys strictly ascending, which together keep exponential search
// exact), the bitmap's shape (one word per 64 slots, no bit past the last
// slot), routing bounds of inner nodes, occupancy accounting, the leaf
// chain, and the global record count. It is O(n) and intended for tests.
func (ix *Index) CheckInvariants() error {
	var leaves []*dataNode
	totalOcc := 0

	var walk func(n node, lo core.Key, loValid bool, hi core.Key, hiValid bool) error
	walk = func(n node, lo core.Key, loValid bool, hi core.Key, hiValid bool) error {
		switch v := n.(type) {
		case *dataNode:
			leaves = append(leaves, v)
			if len(v.occ) != (len(v.slots)+63)/64 {
				return fmt.Errorf("alex: bitmap of %d words for %d slots", len(v.occ), len(v.slots))
			}
			if tail := len(v.slots) & 63; tail != 0 && v.occ[len(v.occ)-1]>>tail != 0 {
				return fmt.Errorf("alex: bitmap marks a slot past the last of %d", len(v.slots))
			}
			if v.numKeys >= len(v.slots) && v.numKeys > 0 {
				return fmt.Errorf("alex: data node full (%d keys in %d slots): no gap for inserts", v.numKeys, len(v.slots))
			}
			occ := 0
			lastOccKey := core.Key(0)
			haveOcc := false
			for i, r := range v.slots {
				if i > 0 && r.Key < v.slots[i-1].Key {
					return fmt.Errorf("alex: data node slots not sorted at %d", i)
				}
				if v.occupied(i) {
					occ++
					if haveOcc && r.Key <= lastOccKey {
						return fmt.Errorf("alex: occupied keys not strictly ascending at slot %d", i)
					}
					haveOcc, lastOccKey = true, r.Key
					if loValid && r.Key < lo {
						return fmt.Errorf("alex: key %d below routing bound %d", r.Key, lo)
					}
					if hiValid && r.Key >= hi {
						return fmt.Errorf("alex: key %d at or above routing bound %d", r.Key, hi)
					}
				}
			}
			if occ != v.numKeys {
				return fmt.Errorf("alex: numKeys=%d but %d occupied slots", v.numKeys, occ)
			}
			totalOcc += occ
			return nil
		case *inner:
			if len(v.firstKeys) != len(v.children) {
				return fmt.Errorf("alex: inner firstKeys/children mismatch %d != %d", len(v.firstKeys), len(v.children))
			}
			if len(v.children) == 0 {
				return fmt.Errorf("alex: inner node with no children")
			}
			for i := 1; i < len(v.firstKeys); i++ {
				if v.firstKeys[i] <= v.firstKeys[i-1] {
					return fmt.Errorf("alex: inner firstKeys not strictly ascending at %d", i)
				}
			}
			for i, c := range v.children {
				// Child i holds keys in [firstKeys[i], firstKeys[i+1]).
				// firstKeys[0] is not binding: route clamps lower keys to
				// child 0, so child 0 inherits the parent's lower bound.
				cLo, cLoValid := v.firstKeys[i], true
				if i == 0 {
					cLo, cLoValid = lo, loValid
				}
				cHi, cHiValid := hi, hiValid
				if i+1 < len(v.firstKeys) {
					cHi, cHiValid = v.firstKeys[i+1], true
				}
				if err := walk(c, cLo, cLoValid, cHi, cHiValid); err != nil {
					return err
				}
			}
			return nil
		}
		return fmt.Errorf("alex: unknown node type %T", n)
	}
	if err := walk(ix.root, 0, false, 0, false); err != nil {
		return err
	}
	if totalOcc != ix.size {
		return fmt.Errorf("alex: size=%d but tree holds %d records", ix.size, totalOcc)
	}
	// Leaf chain must be exactly the in-order data nodes.
	dn := ix.leftmostLeaf()
	for i := 0; ; i++ {
		if dn == nil {
			if i != len(leaves) {
				return fmt.Errorf("alex: leaf chain has %d nodes, tree has %d", i, len(leaves))
			}
			break
		}
		if i >= len(leaves) || dn != leaves[i] {
			return fmt.Errorf("alex: leaf chain diverges from tree order at node %d", i)
		}
		dn = dn.next
	}
	return nil
}
