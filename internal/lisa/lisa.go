// Package lisa implements LISA (Li et al., "LISA: A Learned Index
// Structure for Spatial Data", SIGMOD 2020) in its in-memory form: a
// monotone *mapping function* projects points to one dimension via an
// equal-depth grid (grid cell rank plus a within-cell offset along
// dimension 0), the mapped domain is split into learned shards, and each
// shard holds a sorted run plus a delta buffer for updates. Shards that
// overflow split, keeping the structure balanced under inserts. A run keeps
// its points only, in the mapping's order, by cell and then by dimension 0,
// beside a small index of its cells; a search finds a cell in that index
// and the coordinate range within it by the points' own dimension 0.
//
// Taxonomy: mutable / pure / delta-buffer insert / projected space.
package lisa

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

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

// run is a run of records in mapped order: by grid cell rank, then by
// coordinate 0 within a cell. cells has one entry per cell the run holds, in
// rank order, with the position its records end at; each cell's records
// start where the one before it ends.
type run struct {
	cells []cellEnd
	pts   core.PointStore
}

type cellEnd struct{ rank, end uint32 }

func newRun(dim, capacity int) run { return run{pts: core.NewPointStore(dim, capacity)} }

// cell returns the index k of the first entry of rank at least rank and the
// positions [lo, hi) of cell rank's records, empty at lo if there are none.
func (r *run) cell(rank uint32) (k, lo, hi int) {
	k, found := slices.BinarySearchFunc(r.cells, rank, func(c cellEnd, rank uint32) int { return cmp.Compare(c.rank, rank) })
	if k > 0 {
		lo = int(r.cells[k-1].end)
	}
	if hi = lo; found {
		hi = int(r.cells[k].end)
	}
	return k, lo, hi
}

// span returns the positions [lo, hi) of cell rank's records whose
// coordinate 0 lies in [x0, x1]. f0 and f1 are the mapping's fractions of
// x0 and x1 across the cell, which guess where in it they fall.
func (r *run) span(rank uint32, x0, x1, f0, f1 float64) (lo, hi int) {
	_, a, b := r.cell(rank)
	guess := func(f float64) int { return a + int(f*float64(b-a)) }
	lo = r.pts.DimBound(a, b, 0, x0, false, guess(f0), 0)
	return lo, r.pts.DimBound(lo, b, 0, x1, true, max(lo, guess(f1)), 0)
}

// add appends a record of cell rank, which is not below the last record's.
func (r *run) add(pv core.PV, rank uint32) {
	r.pts.Append(pv.Point, pv.Value)
	r.endCell(rank, r.pts.Len())
}

// endCell extends the cell index over the records up to end, the last of
// them of cell rank, which is not below the last record's before it.
func (r *run) endCell(rank uint32, end int) {
	if k := len(r.cells) - 1; k >= 0 && r.cells[k].rank == rank {
		r.cells[k].end = uint32(end)
	} else {
		r.cells = append(r.cells, cellEnd{rank, uint32(end)})
	}
}

// insert adds a copy of p, of cell rank, after the records of its cell whose
// coordinate 0 is at most p's.
func (r *run) insert(p core.Point, v core.Value, rank uint32) {
	k, lo, hi := r.cell(rank)
	if lo == hi {
		r.cells = slices.Insert(r.cells, k, cellEnd{rank, uint32(lo)})
	}
	r.pts.Insert(r.pts.DimBound(lo, hi, 0, p[0], true, hi, 0), p, v)
	for ; k < len(r.cells); k++ {
		r.cells[k].end++
	}
}

// remove deletes record i, of cell rank.
func (r *run) remove(i int, rank uint32) {
	k, lo, hi := r.cell(rank)
	r.pts.Remove(i)
	for j := k; j < len(r.cells); j++ {
		r.cells[j].end--
	}
	if hi-lo == 1 {
		r.cells = slices.Delete(r.cells, k, k+1)
	}
}

// ranks returns the rank of each record's cell.
func (r *run) ranks() []uint32 {
	out := make([]uint32, 0, r.pts.Len())
	for _, c := range r.cells {
		for len(out) < int(c.end) {
			out = append(out, c.rank)
		}
	}
	return out
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
	grid   core.Grid // GridCols columns in every dimension
	shards []*shard
	// router: linear model over shard loM -> index, corrected by walk.
	slope, base float64
	size        int
	// Splits counts the merges that split a shard (diagnostics).
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
		cfg.DeltaCap = max(cfg.ShardSize/4, 16)
	}
	sorted, orders := core.SortedColumns(pvs, dim)
	if cfg.GridCols <= 0 {
		cfg.GridCols = tuneGrid(core.NewGridModel(sorted, core.GridSample(pvs, core.Bounds(pvs))), dim)
	}
	ix := &Index{cfg: cfg, dim: dim, size: len(pvs)}
	cols := make([]int, dim)
	for d := range cols {
		cols[d] = cfg.GridCols
	}
	if ix.grid, err = core.NewGrid(sorted, cols, 1<<32); err != nil {
		return nil, fmt.Errorf("lisa: %w", err)
	}
	// Order by cell, and by coordinate 0 within a cell: the records in
	// coordinate 0 order, sorted stably by cell rank. Then shard.
	cells, ranks := ix.grid.Ranks(len(pvs), sorted, orders), make([]uint32, len(pvs))
	for i, j := range orders[0] {
		ranks[i] = cells[j]
	}
	order := core.SortKeys(ranks)
	for i, j := range order {
		order[i] = orders[0][j]
	}
	for i := 0; i < len(pvs); i += cfg.ShardSize {
		end := min(i+cfg.ShardSize, len(pvs))
		sh := &shard{base: run{pts: core.NewPointStoreFrom(dim, pvs, order[i:end])}, delta: newRun(dim, 0)}
		for k := i; k < end; k++ {
			sh.base.endCell(ranks[k], k-i+1)
		}
		sh.loM = ix.mapPoint(sh.base.pts.At(0))
		ix.shards = append(ix.shards, sh)
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
	ix.slope, ix.base = 0, 0
	if n := len(ix.shards); n >= 2 {
		lo, hi := ix.shards[1].loM, ix.shards[n-1].loM
		if ix.base = lo; hi > lo {
			ix.slope = float64(n-2) / (hi - lo)
		}
	}
}

// frac returns the monotone within-cell offset of v along dimension 0
// given its column c, in [0, 1).
func (ix *Index) frac(c int, v float64) float64 {
	b := ix.grid.Bounds[0]
	if b == nil { // one column, open at both ends
		return 0.5
	}
	lo, hi := b[c], b[c+1]
	if math.IsInf(lo, -1) || math.IsInf(hi, 1) || hi <= lo {
		// An open edge column, or an empty one, has no span to interpolate
		// across: every offset in it is the midpoint.
		return 0.5
	}
	return min(max((v-lo)/(hi-lo), 0), math.Nextafter(1, 0))
}

// cellM combines a cell rank with a within-cell fraction, guaranteeing the
// result stays strictly below rank+1 (the sum can otherwise round up at
// large ranks, colliding with the next cell's values).
func cellM(rank, f float64) float64 { return min(rank+f, math.Nextafter(rank+1, 0)) }

// place returns the rank of p's grid cell and p's offset within it along
// dimension 0, the two parts of the mapping.
func (ix *Index) place(p core.Point) (rank uint32, f float64) {
	r := ix.grid.Cell(p)
	return uint32(r), ix.frac(r/ix.stride0(), p[0]) // dimension 0 leads the rank
}

// stride0 returns the number of cells a column of dimension 0 spans.
func (ix *Index) stride0() int { return ix.grid.Cells() / ix.cfg.GridCols }

// mapPoint is LISA's monotone mapping function M.
func (ix *Index) mapPoint(p core.Point) float64 {
	rank, f := ix.place(p)
	return cellM(float64(rank), f)
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
// value v accepts, and p's cell rank, or a nil run.
func (ix *Index) find(p core.Point, accept func(core.Value) bool) (*run, int, uint32) {
	rank, f := ix.place(p)
	m := cellM(float64(rank), f)
	for si := ix.firstShardFor(m); si < len(ix.shards) && ix.shards[si].loM <= m; si++ {
		for _, r := range ix.shards[si].runs() {
			lo, hi := r.span(rank, p[0], p[0], f, f)
			for i := r.pts.Find(lo, hi, p); i >= 0; i = r.pts.Find(i+1, hi, p) {
				if accept(r.pts.PV(i).Value) {
					return r, i, rank
				}
			}
		}
	}
	return nil, 0, 0
}

// Lookup returns the value of the point equal to p.
func (ix *Index) Lookup(p core.Point) (core.Value, bool) {
	if p.Dim() != ix.dim {
		return 0, false
	}
	r, i, _ := ix.find(p, func(core.Value) bool { return true })
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
	rank, f := ix.place(p)
	sh := ix.shards[ix.locate(cellM(float64(rank), f))]
	sh.delta.insert(p, v, rank)
	ix.size++
	if sh.delta.pts.Len() >= ix.cfg.DeltaCap {
		ix.mergeShard(sh)
	}
	return nil
}

// Delete removes one point equal to p with matching value.
func (ix *Index) Delete(p core.Point, v core.Value) bool {
	if p.Dim() != ix.dim {
		return false
	}
	r, i, rank := ix.find(p, func(got core.Value) bool { return got == v })
	if r == nil {
		return false
	}
	r.remove(i, rank)
	ix.size--
	return true
}

// mergeShard folds the delta into the base run, split into target-size
// shards if the two hold more than two shards' worth.
func (ix *Index) mergeShard(sh *shard) {
	base, delta := &sh.base, &sh.delta
	rb, rd := base.ranks(), delta.ranks()
	per := len(rb) + len(rd) // records a shard takes
	if per > 2*ix.cfg.ShardSize {
		per = ix.cfg.ShardSize
	}
	var repl []*shard
	add := func(r *run, i int, rank uint32) {
		if len(repl) == 0 || repl[len(repl)-1].base.pts.Len() == per {
			repl = append(repl, &shard{loM: ix.mapPoint(r.pts.At(i)), base: newRun(ix.dim, per), delta: newRun(ix.dim, 0)})
		}
		repl[len(repl)-1].base.add(r.pts.PV(i), rank)
	}
	for i, j := 0, 0; i < len(rb) || j < len(rd); {
		if j == len(rd) || i < len(rb) && (rb[i] < rd[j] || rb[i] == rd[j] && base.pts.At(i)[0] <= delta.pts.At(j)[0]) {
			add(base, i, rb[i])
			i++
		} else {
			add(delta, j, rd[j])
			j++
		}
	}
	repl[0].loM = sh.loM
	pos := slices.Index(ix.shards, sh)
	ix.shards = slices.Replace(ix.shards, pos, pos+1, repl...)
	if len(repl) > 1 {
		ix.Splits++
		ix.retrainRouter()
	}
}

// Search calls fn for every point in rect; fn returning false stops.
// Returns points visited and candidate records scanned.
func (ix *Index) Search(rect core.Rect, fn func(core.PV) bool) (visited, scanned int) {
	if rect.Dim() != ix.dim {
		return 0, 0
	}
	// The mapped interval of each cell, cut to the rect's dimension-0 span
	// in the first and the last column of dimension 0 the rect meets.
	lo0, hi0 := ix.grid.Column(0, rect.Min[0]), ix.grid.Column(0, rect.Max[0])
	fLo0, fHi0 := ix.frac(lo0, rect.Min[0]), ix.frac(hi0, rect.Max[0])
	loEnd, hiStart := (lo0+1)*ix.stride0(), hi0*ix.stride0()
	ix.grid.Walk(rect, func(rank int) bool {
		fLo, fHi := 0.0, 1.0
		if rank < loEnd {
			fLo = fLo0
		}
		if rank >= hiStart {
			fHi = fHi0
		}
		mLo, mHi := cellM(float64(rank), fLo), cellM(float64(rank), fHi)
		for si := ix.firstShardFor(mLo); si < len(ix.shards) && ix.shards[si].loM <= mHi; si++ {
			for _, r := range ix.shards[si].runs() {
				i, j := r.span(uint32(rank), rect.Min[0], rect.Max[0], fLo, fHi)
				n, cont := r.pts.ScanRect(i, j, rect, fn)
				visited += n
				scanned += j - i
				if !cont {
					return false
				}
			}
		}
		return true
	})
	return visited, scanned
}

// KNN returns the k nearest points to q in ascending distance order.
func (ix *Index) KNN(q core.Point, k int) []core.PV {
	return ix.grid.KNN(q, k, ix.size, ix.Search)
}

// Stats reports structure statistics.
func (ix *Index) Stats() core.Stats {
	var cells int
	for _, sh := range ix.shards {
		cells += len(sh.base.cells) + len(sh.delta.cells)
	}
	return core.Stats{
		Name:       "lisa",
		Count:      ix.size,
		IndexBytes: len(ix.shards)*int(unsafe.Sizeof(shard{})+8) + ix.grid.Bytes() + cells*int(unsafe.Sizeof(cellEnd{})),
		DataBytes:  ix.size * (8*ix.dim + 8),
		Height:     2,
		Models:     len(ix.shards) + ix.dim,
	}
}
