package lisa

import (
	"fmt"
	"math"
)

// CheckInvariants verifies LISA's grid and shards: at least one column,
// each dimension's column boundaries running from -Inf to +Inf without
// decreasing, and the shards' lowest mapped values not decreasing from -Inf.
// In every run, the cell index's ranks and ends ascend and the last end is
// the run's length; every record lies in the cell the index puts it in, in
// coordinate 0 order within it, and maps inside its shard's range; the
// records number Len. It is O(n) and intended for tests.
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
			var last cellEnd
			for k, c := range r.cells {
				if (k > 0 && c.rank <= last.rank) || c.end <= last.end {
					return fmt.Errorf("lisa: shard %d cell index entry %d %v after %v", si, k, c, last)
				}
				last = c
			}
			if int(last.end) != r.pts.Len() {
				return fmt.Errorf("lisa: shard %d cell index ends at %d, its run at %d", si, last.end, r.pts.Len())
			}
			ranks := r.ranks()
			for i, rank := range ranks {
				p := r.pts.At(i)
				if want, _ := ix.place(p); rank != want {
					return fmt.Errorf("lisa: shard %d record %d is indexed in cell %d, maps to cell %d", si, i, rank, want)
				}
				if i > 0 && rank == ranks[i-1] && p[0] < r.pts.At(i - 1)[0] {
					return fmt.Errorf("lisa: shard %d record %d at %g after %g in cell %d: out of order", si, i, p[0], r.pts.At(i - 1)[0], rank)
				}
				if m := ix.mapPoint(p); m < sh.loM || m > next {
					return fmt.Errorf("lisa: shard %d record %d maps to %g, outside [%g,%g]", si, i, m, sh.loM, next)
				}
			}
			n += len(ranks)
		}
	}
	if n != ix.size {
		return fmt.Errorf("lisa: %d records, Len %d", n, ix.size)
	}
	return nil
}
