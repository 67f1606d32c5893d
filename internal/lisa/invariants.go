package lisa

import (
	"fmt"
	"math"
)

// CheckInvariants verifies LISA's grid and shards: at least one column,
// each dimension's column boundaries running from -Inf to +Inf without
// decreasing, the shards' lowest mapped values not decreasing from -Inf,
// and every record's stored mapped value its point's mapping, sorted within
// its run and inside its shard's range; the records number Len. It is O(n)
// and intended for tests.
func (ix *Index) CheckInvariants() error {
	g := ix.cfg.GridCols
	if g < 1 || len(ix.bounds) != ix.dim {
		return fmt.Errorf("lisa: %d columns, %d boundary sets for dimension %d", g, len(ix.bounds), ix.dim)
	}
	for d, b := range ix.bounds {
		if len(b) != g+1 || !math.IsInf(b[0], -1) || !math.IsInf(b[g], 1) {
			return fmt.Errorf("lisa: dimension %d has boundaries %v for %d columns", d, b, g)
		}
		for c := 1; c <= g; c++ {
			if !(b[c] >= b[c-1]) {
				return fmt.Errorf("lisa: dimension %d boundary %d is %g after %g", d, c, b[c], b[c-1])
			}
		}
	}
	if len(ix.shards) == 0 || !math.IsInf(ix.shards[0].loM, -1) {
		return fmt.Errorf("lisa: %d shards, the first not open below", len(ix.shards))
	}
	n := 0
	for si, sh := range ix.shards {
		next := math.Inf(1)
		if si+1 < len(ix.shards) {
			next = ix.shards[si+1].loM
		}
		if !(next >= sh.loM) {
			return fmt.Errorf("lisa: shard %d starts at %g, the next at %g", si, sh.loM, next)
		}
		for _, r := range sh.runs() {
			if len(r.m) != r.pts.Len() {
				return fmt.Errorf("lisa: shard %d run has %d mapped values for %d points", si, len(r.m), r.pts.Len())
			}
			for i, m := range r.m {
				if got := ix.mapPoint(r.pts.At(i)); got != m {
					return fmt.Errorf("lisa: shard %d record %d stored at %g, maps to %g", si, i, m, got)
				}
				if (i > 0 && m < r.m[i-1]) || m < sh.loM || m > next {
					return fmt.Errorf("lisa: shard %d [%g,%g] record %d at %g out of order", si, sh.loM, next, i, m)
				}
			}
			n += len(r.m)
		}
	}
	if n != ix.size {
		return fmt.Errorf("lisa: %d records, Len %d", n, ix.size)
	}
	return nil
}
