// Package lisa implements LISA (Li et al., "LISA: A Learned Index
// Structure for Spatial Data", SIGMOD 2020) in its in-memory form: a
// monotone *mapping function* projects points to one dimension via an
// equal-depth grid (grid cell rank plus a within-cell offset along
// dimension 0), the mapped domain is split into learned shards, and each
// shard holds a sorted run plus a delta buffer for updates. Shards that
// overflow split, keeping the structure balanced under inserts.
//
// Taxonomy: mutable / pure / delta-buffer insert / projected space.
package lisa

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/lix-go/lix/internal/core"
)

// Config parameterizes a build.
type Config struct {
	// GridCols is the number of equal-depth slices per dimension. 0 takes
	// the count the cost model picks on a query sample drawn from the data
	// (core.GridSample).
	GridCols int
	// ShardSize is the target records per shard (0 -> 1024).
	ShardSize int
	// DeltaCap triggers a shard merge (0 -> ShardSize/4).
	DeltaCap int
}

// run is a run of records sorted by mapped value: m[i] belongs to point i
// of pts.
type run struct {
	m   []float64
	pts core.PointStore
}

func newRun(dim, capacity int) run {
	return run{m: make([]float64, 0, capacity), pts: core.NewPointStore(dim, capacity)}
}

// span returns the positions [lo, hi) of the records with mapped value in
// [mLo, mHi], both finite.
func (r *run) span(mLo, mHi float64) (lo, hi int) {
	lo = sort.SearchFloat64s(r.m, mLo)
	return lo, lo + sort.SearchFloat64s(r.m[lo:], math.Nextafter(mHi, math.Inf(1)))
}

// add appends record i of src.
func (r *run) add(src *run, i int) {
	pv := src.pts.PV(i)
	r.m = append(r.m, src.m[i])
	r.pts.Append(pv.Point, pv.Value)
}

type shard struct {
	loM         float64 // smallest mapped value routed here
	base, delta run
}

// runs lists the shard's two runs, base first.
func (sh *shard) runs() [2]*run { return [2]*run{&sh.base, &sh.delta} }

// Index is a LISA index.
type Index struct {
	cfg    Config
	dim    int
	bounds [][]float64 // per dim: sorted column boundaries (len cols+1)
	shards []*shard
	// router: linear model over shard loM -> index, corrected by walk.
	slope, base float64
	size        int
	side        float64 // longest side of the extent the index was built on
	// Merges and Splits count shard maintenance events (diagnostics).
	Merges int
	Splits int
}

// Build constructs a LISA index over the points (copied and reordered).
func Build(pvs []core.PV, cfg Config) (*Index, error) {
	dim, err := core.PointsDim(pvs)
	if err != nil {
		return nil, fmt.Errorf("lisa: %w", err)
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 1024
	}
	if cfg.DeltaCap <= 0 {
		cfg.DeltaCap = cfg.ShardSize / 4
		if cfg.DeltaCap < 16 {
			cfg.DeltaCap = 16
		}
	}
	sorted, _ := core.SortedColumns(pvs, dim, func(int) bool { return true })
	ext := core.Rect{Min: make(core.Point, dim), Max: make(core.Point, dim)}
	for d, col := range sorted {
		ext.Min[d], ext.Max[d] = col[0], col[len(col)-1]
	}
	if cfg.GridCols <= 0 {
		cfg.GridCols = tuneGrid(core.NewGridModel(sorted, core.GridSample(pvs, ext)), dim)
	}
	ix := &Index{cfg: cfg, dim: dim, size: len(pvs)}
	// Equal-depth boundaries per dimension.
	ix.bounds = make([][]float64, dim)
	for d, coord := range sorted {
		ix.side = max(ix.side, ext.Max[d]-ext.Min[d])
		b := make([]float64, cfg.GridCols+1)
		b[0] = math.Inf(-1)
		for c := 1; c < cfg.GridCols; c++ {
			b[c] = coord[c*len(coord)/cfg.GridCols]
		}
		b[cfg.GridCols] = math.Inf(1)
		// Boundaries must be strictly increasing for column search; nudge
		// duplicates (heavy ties collapse columns, which is harmless).
		for c := 1; c <= cfg.GridCols; c++ {
			if b[c] <= b[c-1] {
				b[c] = b[c-1]
			}
		}
		ix.bounds[d] = b
	}
	// Map, sort and shard.
	ms := sorted[0]
	for i, pv := range pvs {
		ms[i] = ix.mapPoint(pv.Point)
	}
	order := core.SortKeys(ms)
	for i := 0; i < len(ms); i += cfg.ShardSize {
		end := min(i+cfg.ShardSize, len(ms))
		ix.shards = append(ix.shards, &shard{
			loM:   ms[i],
			base:  run{m: slices.Clone(ms[i:end]), pts: core.NewPointStoreFrom(dim, pvs, order[i:end])},
			delta: newRun(dim, 0),
		})
	}
	ix.shards[0].loM = math.Inf(-1)
	ix.retrainRouter()
	return ix, nil
}

// tuneGrid returns the power-of-two column count, the same in every
// dimension and at most n/8 cells in all, of least cost under the grid cost
// model, refined along dimension 0 as the mapping refines.
func tuneGrid(m core.GridModel, dim int) int {
	best, bestCost := 1, math.Inf(1)
	cols := make([]int, dim)
	for g := 1; math.Pow(float64(g), float64(dim)) <= float64(max(m.N()/8, 1)); g *= 2 {
		for d := range cols {
			cols[d] = g
		}
		if cost := m.Cost(cols, 0); cost < bestCost {
			best, bestCost = g, cost
		}
	}
	return best
}

func (ix *Index) retrainRouter() {
	n := len(ix.shards)
	if n < 2 {
		ix.slope, ix.base = 0, 0
		return
	}
	lo := ix.shards[1].loM
	hi := ix.shards[n-1].loM
	ix.base = lo
	if hi > lo {
		ix.slope = float64(n-2) / (hi - lo)
	} else {
		ix.slope = 0
	}
}

// column returns the grid column of v in dimension d.
func (ix *Index) column(d int, v float64) int {
	b := ix.bounds[d]
	// Last c with b[c] <= v; b[0] = -inf guarantees c >= 0.
	lo, hi := 0, len(b)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if b[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo >= ix.cfg.GridCols {
		lo = ix.cfg.GridCols - 1
	}
	return lo
}

// cellRank flattens per-dimension columns.
func (ix *Index) cellRank(cols []int) float64 {
	r := 0
	for _, c := range cols {
		r = r*ix.cfg.GridCols + c
	}
	return float64(r)
}

// frac returns the monotone within-cell offset of v along dimension 0
// given its column c, in [0, 1).
func (ix *Index) frac(c int, v float64) float64 {
	b := ix.bounds[0]
	lo, hi := b[c], b[c+1]
	if math.IsInf(lo, -1) || math.IsInf(hi, 1) || hi <= lo {
		// Open-ended edge cells: squash with a bounded sigmoid-ish map.
		return 0.5
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f >= 1 {
		f = math.Nextafter(1, 0)
	}
	return f
}

// cellM combines a cell rank with a within-cell fraction, guaranteeing the
// result stays strictly below rank+1 (the sum can otherwise round up at
// large ranks, colliding with the next cell's values).
func cellM(rank, f float64) float64 {
	m := rank + f
	if m >= rank+1 {
		m = math.Nextafter(rank+1, 0)
	}
	return m
}

// mapPoint is LISA's monotone mapping function M.
func (ix *Index) mapPoint(p core.Point) float64 {
	c0 := ix.column(0, p[0])
	rank := c0
	for d := 1; d < ix.dim; d++ {
		rank = rank*ix.cfg.GridCols + ix.column(d, p[d])
	}
	return cellM(float64(rank), ix.frac(c0, p[0]))
}

// locate returns the shard index owning mapped value m.
func (ix *Index) locate(m float64) int {
	i := core.Clamp(int(ix.slope*(m-ix.base))+1, 0, len(ix.shards)-1)
	for i+1 < len(ix.shards) && m >= ix.shards[i+1].loM {
		i++
	}
	for i > 0 && m < ix.shards[i].loM {
		i--
	}
	return i
}

// Len returns the number of points.
func (ix *Index) Len() int { return ix.size }

// Shards returns the shard count.
func (ix *Index) Shards() int { return len(ix.shards) }

// firstShardFor returns the index of the first shard that can hold mapped
// value m. Equal mapped values may span several shards after count-based
// splits, so this backtracks from the routing result.
func (ix *Index) firstShardFor(m float64) int {
	si := ix.locate(m)
	for si > 0 && ix.shards[si].loM >= m {
		si--
	}
	return si
}

// find returns the run and position of a stored point equal to p whose
// value v accepts, or a nil run.
func (ix *Index) find(p core.Point, accept func(core.Value) bool) (*run, int) {
	m := ix.mapPoint(p)
	for si := ix.firstShardFor(m); si < len(ix.shards) && ix.shards[si].loM <= m; si++ {
		for _, r := range ix.shards[si].runs() {
			lo, hi := r.span(m, m)
			for i := r.pts.Find(lo, hi, p); i >= 0; i = r.pts.Find(i+1, hi, p) {
				if accept(r.pts.PV(i).Value) {
					return r, i
				}
			}
		}
	}
	return nil, 0
}

// Lookup returns the value of the point equal to p.
func (ix *Index) Lookup(p core.Point) (core.Value, bool) {
	if p.Dim() != ix.dim {
		return 0, false
	}
	r, i := ix.find(p, func(core.Value) bool { return true })
	if r == nil {
		return 0, false
	}
	return r.pts.PV(i).Value, true
}

// Insert adds a copy of the point.
func (ix *Index) Insert(p core.Point, v core.Value) error {
	if p.Dim() != ix.dim {
		return fmt.Errorf("lisa: point dim %d, want %d", p.Dim(), ix.dim)
	}
	m := ix.mapPoint(p)
	sh := ix.shards[ix.locate(m)]
	i := sort.SearchFloat64s(sh.delta.m, m)
	sh.delta.m = slices.Insert(sh.delta.m, i, m)
	sh.delta.pts.Insert(i, p, v)
	ix.size++
	if len(sh.delta.m) >= ix.cfg.DeltaCap {
		ix.mergeShard(sh)
	}
	return nil
}

// Delete removes one point equal to p with matching value.
func (ix *Index) Delete(p core.Point, v core.Value) bool {
	if p.Dim() != ix.dim {
		return false
	}
	r, i := ix.find(p, func(got core.Value) bool { return got == v })
	if r == nil {
		return false
	}
	r.m = slices.Delete(r.m, i, i+1)
	r.pts.Remove(i)
	ix.size--
	return true
}

// mergeShard folds the delta into the base run and splits if oversized.
func (ix *Index) mergeShard(sh *shard) {
	base, delta := &sh.base, &sh.delta
	merged := newRun(ix.dim, len(base.m)+len(delta.m))
	for i, j := 0, 0; i < len(base.m) || j < len(delta.m); {
		if j >= len(delta.m) || (i < len(base.m) && base.m[i] <= delta.m[j]) {
			merged.add(base, i)
			i++
		} else {
			merged.add(delta, j)
			j++
		}
	}
	sh.delta = newRun(ix.dim, 0)
	ix.Merges++
	if len(merged.m) <= 2*ix.cfg.ShardSize {
		sh.base = merged
		return
	}
	// Split into target-size shards.
	pos := slices.Index(ix.shards, sh)
	var repl []*shard
	for s := 0; s < len(merged.m); s += ix.cfg.ShardSize {
		e := min(s+ix.cfg.ShardSize, len(merged.m))
		ns := &shard{loM: merged.m[s], base: newRun(ix.dim, e-s), delta: newRun(ix.dim, 0)}
		for i := s; i < e; i++ {
			ns.base.add(&merged, i)
		}
		repl = append(repl, ns)
	}
	repl[0].loM = sh.loM
	ix.shards = slices.Replace(ix.shards, pos, pos+1, repl...)
	ix.Splits++
	ix.retrainRouter()
}

// Search calls fn for every point in rect; fn returning false stops.
// Returns points visited and candidate records scanned.
func (ix *Index) Search(rect core.Rect, fn func(core.PV) bool) (visited, scanned int) {
	if rect.Dim() != ix.dim {
		return 0, 0
	}
	// Column bounds and the odometer over them; on the stack for the usual
	// dimensionalities.
	var buf [3 * 8]int
	b := buf[:]
	if 3*ix.dim > len(b) {
		b = make([]int, 3*ix.dim)
	}
	lo, hi, cols := b[:ix.dim], b[ix.dim:2*ix.dim], b[2*ix.dim:3*ix.dim]
	for d := 0; d < ix.dim; d++ {
		lo[d] = ix.column(d, rect.Min[d])
		hi[d] = ix.column(d, rect.Max[d])
		cols[d] = lo[d]
	}
	for {
		// Mapped interval of this cell restricted to the rect's dim-0 span.
		rank := ix.cellRank(cols)
		var fLo, fHi float64
		if cols[0] == lo[0] {
			fLo = ix.frac(cols[0], rect.Min[0])
		}
		if cols[0] == hi[0] {
			fHi = ix.frac(cols[0], rect.Max[0])
		} else {
			// Strictly below the next cell's rank so no record is scanned
			// by two adjacent cell intervals.
			fHi = math.Nextafter(1, 0)
		}
		mLo, mHi := cellM(rank, fLo), cellM(rank, fHi)
		for si := ix.firstShardFor(mLo); si < len(ix.shards) && ix.shards[si].loM <= mHi; si++ {
			for _, r := range ix.shards[si].runs() {
				i, j := r.span(mLo, mHi)
				n, cont := r.pts.ScanRect(i, j, rect, fn)
				visited += n
				scanned += j - i
				if !cont {
					return visited, scanned
				}
			}
		}
		// Odometer.
		d := ix.dim - 1
		for ; d >= 0; d-- {
			if cols[d]++; cols[d] <= hi[d] {
				break
			}
			cols[d] = lo[d]
		}
		if d < 0 {
			return visited, scanned
		}
	}
}

// KNN returns the k nearest points to q in ascending distance order.
func (ix *Index) KNN(q core.Point, k int) []core.PV {
	if q.Dim() != ix.dim {
		return nil
	}
	return core.KNNByWindow(q, k, ix.size, ix.side, ix.Search)
}

// Stats reports structure statistics.
func (ix *Index) Stats() core.Stats {
	var deltaRecs int
	for _, sh := range ix.shards {
		deltaRecs += len(sh.delta.m)
	}
	return core.Stats{
		Name:       "lisa",
		Count:      ix.size,
		IndexBytes: len(ix.shards)*32 + ix.dim*(ix.cfg.GridCols+1)*8 + deltaRecs*8,
		DataBytes:  ix.size * (8*ix.dim + 16),
		Height:     2,
		Models:     len(ix.shards) + ix.dim,
	}
}
