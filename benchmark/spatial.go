package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	lix "github.com/lix-go/lix"
)

// mixture is the frozen point distribution: Gaussian clusters over a uniform
// background. Only the sample drawn from it depends on -seed.
type mixture struct {
	cx, cy, sigma, cum []float64 // cum is the cumulative cluster weight
}

func frozenMixture() mixture {
	r := newRNG(spatialMixtureSeed)
	var m mixture
	total := 0.0
	for i := 0; i < spatialClusters; i++ {
		m.cx = append(m.cx, (0.1+0.8*r.float())*spatialExtent)
		m.cy = append(m.cy, (0.1+0.8*r.float())*spatialExtent)
		m.sigma = append(m.sigma, (0.004+0.012*r.float())*spatialExtent)
		total += 0.5 + r.float()
		m.cum = append(m.cum, total)
	}
	for i := range m.cum {
		m.cum[i] /= total
	}
	return m
}

// sample draws one point inside the extent.
func (m mixture) sample(r *rng) lix.Point {
	for {
		var x, y float64
		if r.float() < spatialBackground {
			x, y = r.float()*spatialExtent, r.float()*spatialExtent
		} else {
			c := sort.SearchFloat64s(m.cum, r.float())
			if c == len(m.cum) {
				c--
			}
			x, y = m.cx[c]+r.norm()*m.sigma[c], m.cy[c]+r.norm()*m.sigma[c]
		}
		if x >= 0 && x < spatialExtent && y >= 0 && y < spatialExtent {
			return lix.Point{x, y}
		}
	}
}

// pointGrid holds the points bucketed into square cells. It is the benchmark's
// own index: the generator sizes a rectangle with it by the points the
// rectangle holds, without asking the program under test, and it is the
// reference implementation the kinds are timed against.
type pointGrid struct {
	cell  float64
	start []int32  // cell c holds pvs[start[c]:start[c+1]]
	pvs   []lix.PV // in cell order
}

const gridSide = 512 // cells per axis

func (g *pointGrid) cellOf(x float64) int { return min(int(x/g.cell), gridSide-1) }

func newPointGrid(pvs []lix.PV) *pointGrid {
	g := &pointGrid{cell: float64(spatialExtent) / gridSide, start: make([]int32, gridSide*gridSide+1), pvs: make([]lix.PV, len(pvs))}
	cell := func(pv lix.PV) int { return g.cellOf(pv.Point[1])*gridSide + g.cellOf(pv.Point[0]) }
	for _, pv := range pvs {
		g.start[cell(pv)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	fill := append([]int32(nil), g.start...)
	for _, pv := range pvs {
		c := cell(pv)
		g.pvs[fill[c]] = pv
		fill[c]++
	}
	return g
}

// answer is the reference implementation of a query: a scan of the cells the
// query touches.
func (g *pointGrid) answer(q *squery) (ok bool, count int, sum uint64) {
	if q.class == 0 {
		c := g.cellOf(q.p[1])*gridSide + g.cellOf(q.p[0])
		for _, pv := range g.pvs[g.start[c]:g.start[c+1]] {
			if pv.Point.Equal(q.p) {
				return true, 0, pv.Value
			}
		}
		return false, 0, 0
	}
	x0, x1 := g.cellOf(q.rect.Min[0]), g.cellOf(q.rect.Max[0])
	for y := g.cellOf(q.rect.Min[1]); y <= g.cellOf(q.rect.Max[1]); y++ {
		for _, pv := range g.pvs[g.start[y*gridSide+x0]:g.start[y*gridSide+x1+1]] {
			if q.rect.Contains(pv.Point) {
				count++
				sum += pv.Value
			}
		}
	}
	return false, count, sum
}

// halfSide returns the smallest h for which the closed square of half-side h
// around c holds at least t points: the t-th smallest Chebyshev distance from
// c. It gathers the cells around c ring by ring until the square they cover
// for certain holds t points.
func (g *pointGrid) halfSide(c lix.Point, t int, dists []float64) (float64, []float64) {
	cx, cy := g.cellOf(c[0]), g.cellOf(c[1])
	dists = dists[:0]
	for r := 0; ; r++ {
		x0, x1, y0, y1 := cx-r, cx+r, cy-r, cy+r
		for y := max(y0, 0); y <= min(y1, gridSide-1); y++ {
			step := 1
			if y != y0 && y != y1 && r > 0 {
				step = 2 * r // only the ring's two end cells of this row
			}
			for x := x0; x <= x1; x += step {
				if x < 0 || x >= gridSide {
					continue
				}
				for _, pv := range g.pvs[g.start[y*gridSide+x]:g.start[y*gridSide+x+1]] {
					p := pv.Point
					dists = append(dists, math.Max(math.Abs(p[0]-c[0]), math.Abs(p[1]-c[1])))
				}
			}
		}
		// Every point nearer than `reach` lies in a gathered cell; beyond the
		// extent's edge there are no points at all.
		reach := math.Inf(1)
		if x0 > 0 {
			reach = math.Min(reach, c[0]-float64(x0)*g.cell)
		}
		if x1 < gridSide-1 {
			reach = math.Min(reach, float64(x1+1)*g.cell-c[0])
		}
		if y0 > 0 {
			reach = math.Min(reach, c[1]-float64(y0)*g.cell)
		}
		if y1 < gridSide-1 {
			reach = math.Min(reach, float64(y1+1)*g.cell-c[1])
		}
		within := 0
		for _, d := range dists {
			if d < reach {
				within++
			}
		}
		if within >= t || math.IsInf(reach, 1) {
			sort.Float64s(dists)
			return dists[min(t, len(dists))-1], dists
		}
	}
}

// squery is one spatial query with its reference answer. Class 0 is a point
// lookup, classes 1..3 are rectangle searches of rising selectivity.
type squery struct {
	class int
	p     lix.Point // lookup subject
	rect  lix.Rect
	// Reference answer: lookups have ok/sum = found/value; rectangles have
	// the result count and the sum of the result values.
	ok    bool
	count int
	sum   uint64
}

// spatialData is the generated input of the spatial workload.
type spatialData struct {
	grid    *pointGrid // the reference implementation
	pvs     []lix.PV
	queries []squery
}

// The fixed interleaving of the timed stream: 3 lookups and 4 searches of each
// selectivity per 15 queries (20 % / 26.7 % / 26.7 % / 26.7 %).
var spatialPattern = [15]int{0, 1, 2, 3, 1, 0, 2, 3, 1, 2, 0, 3, 1, 2, 3}

func genSpatial(seed uint64, scale int) *spatialData {
	m := frozenMixture()
	r := newRNG(mix(seed) ^ 0x706f696e7473) // "points"
	n := scaled(spatialPoints, scale, 2000)
	d := &spatialData{pvs: make([]lix.PV, n)}
	for i := range d.pvs {
		d.pvs[i] = lix.PV{Point: m.sample(r), Value: uint64(i)}
	}
	nq := scaled(15*spatialPool/4, scale, 15*8)
	d.queries = make([]squery, nq)
	d.grid = newPointGrid(d.pvs)
	var dists []float64
	for i := range d.queries {
		q := squery{class: spatialPattern[i%15]}
		c := d.pvs[r.intn(n)].Point
		if q.class == 0 {
			q.p = c
			if r.float() < spatialMissFrac {
				q.p = lix.Point{c[0] + 0.37, c[1] + 0.37}
			}
		} else {
			// The smallest square around c that holds the class's share of
			// the points, so every seed asks for results of the same sizes. A
			// square sized from the mixture's density catches a whole cluster
			// now and then, and those few thousand-point results made a seed's
			// mean query cost a matter of luck (25 to 34 k queries/s over six
			// seeds).
			var half float64
			half, dists = d.grid.halfSide(c, max(1, int(math.Round(spatialSel[q.class-1]*float64(n)))), dists)
			q.rect = lix.Rect{
				Min: lix.Point{math.Max(c[0]-half, 0), math.Max(c[1]-half, 0)},
				Max: lix.Point{math.Min(c[0]+half, spatialExtent), math.Min(c[1]+half, spatialExtent)},
			}
		}
		d.queries[i] = q
	}
	return d
}

func (d *spatialData) sha() string {
	h := sha256.New()
	var buf [32]byte
	put := func(v ...float64) {
		for i, x := range v {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		h.Write(buf[:8*len(v)])
	}
	for _, pv := range d.pvs {
		put(pv.Point[0], pv.Point[1])
	}
	for _, q := range d.queries {
		if q.class == 0 {
			put(q.p[0], q.p[1])
		} else {
			put(q.rect.Min[0], q.rect.Min[1], q.rect.Max[0], q.rect.Max[1])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// answer runs q on ix and returns the answer in the reference's form, plus
// the work Search reported.
func answer(ix lix.SpatialIndex, q *squery) (ok bool, count int, sum uint64, work int) {
	if q.class == 0 {
		v, ok := ix.Lookup(q.p)
		return ok, 0, v, 0
	}
	_, work = ix.Search(q.rect, func(pv lix.PV) bool {
		count++
		sum += pv.Value
		return true
	})
	return false, count, sum, work
}

func (q *squery) matches(ok bool, count int, sum uint64) bool {
	if q.class == 0 {
		return ok == q.ok && (!ok || sum == q.sum)
	}
	return count == q.count && sum == q.sum
}

// reference fills in every query's expected answer from the benchmark's own
// grid and replays one query in spatialBruteEvery against brute force. Both
// happen outside any timed window. It returns checks made and mismatches found.
func (d *spatialData) reference() (checked, wrong int64) {
	for i := range d.queries {
		q := &d.queries[i]
		q.ok, q.count, q.sum = d.grid.answer(q)
		if i%spatialBruteEvery != 0 {
			continue
		}
		var ok bool
		var count int
		var sum uint64
		for _, pv := range d.pvs {
			if q.class == 0 {
				if pv.Point.Equal(q.p) {
					ok, sum = true, pv.Value
				}
			} else if q.rect.Contains(pv.Point) {
				count++
				sum += pv.Value
			}
		}
		checked++
		if !q.matches(ok, count, sum) {
			wrong++
		}
	}
	return checked, wrong
}

// spatialLoop runs the query stream on ix from *pos for dur, checking every
// answer, each batch followed by the reference implementation on the same
// queries. It returns the queries per second of the program's own time and how
// many times faster than the reference it was.
func (d *spatialData) spatialLoop(ix lix.SpatialIndex, pos *int, dur time.Duration, res *result) (rate, speed float64) {
	const batch = 64
	var n, progNS, refNS int64
	for start := time.Now(); time.Since(start) < dur; n += batch {
		first := *pos
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			q := &d.queries[(first+i)%len(d.queries)]
			ok, count, sum, _ := answer(ix, q)
			if !q.matches(ok, count, sum) {
				res.wrong++
			}
		}
		t1 := time.Now()
		for i := 0; i < batch; i++ {
			// Its answer is the expected one by construction; using it keeps
			// the call from being optimised away.
			q := &d.queries[(first+i)%len(d.queries)]
			if ok, count, sum := d.grid.answer(q); !q.matches(ok, count, sum) {
				res.wrong++
			}
		}
		refNS += time.Since(t1).Nanoseconds()
		progNS += t1.Sub(t0).Nanoseconds()
		*pos = (first + batch) % len(d.queries)
	}
	res.attempted += n
	return float64(n) / (float64(progNS) / 1e9), float64(refNS) / float64(progNS)
}

// buildAll builds every spatial kind over the points, returning the indexes,
// each build's time and each index's live-heap cost.
func (d *spatialData) buildAll() (ixs []lix.SpatialIndex, buildS []float64, heap []int64, err error) {
	for _, kind := range spatialKinds {
		before := liveHeap()
		t0 := time.Now()
		ix, err := lix.BuildSpatial(kind, d.pvs)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("build %s: %w", kind, err)
		}
		buildS = append(buildS, time.Since(t0).Seconds())
		ixs = append(ixs, ix)
		heap = append(heap, liveHeap()-before)
	}
	return ixs, buildS, heap, nil
}

func runSpatial(opt options, traced bool) (*result, error) {
	res := newResult(spatialName, traced)
	d := genSpatial(opt.seed, opt.scale)
	res.infof("stream_sha %s", d.sha())
	res.infof("points=%d queries=%d kinds=%v", len(d.pvs), len(d.queries), spatialKinds)

	reps := spatialSetupReps
	if traced {
		reps = 1
	}
	var (
		ixs    []lix.SpatialIndex
		buildS []float64
		heap   []int64
		setups []float64
	)
	for i := 0; i < reps; i++ {
		ixs = nil
		var err error
		if ixs, buildS, heap, err = d.buildAll(); err != nil {
			return res, err
		}
		total := 0.0
		for _, s := range buildS {
			total += s
		}
		setups = append(setups, total)
	}
	checked, wrong := d.reference()
	res.attempted += checked
	res.wrong += wrong
	var results, rects float64
	for _, q := range d.queries {
		if q.class != 0 {
			results += float64(q.count)
			rects++
		}
	}
	res.infof("brute force replayed %d queries, %d mismatches; mean rectangle result %.1f points", checked, wrong, results/rects)

	if traced {
		return res, spatialLayers(d, opt, res, ixs, buildS, heap)
	}

	res.set("setup_s", median(setups))
	res.note("setup_s", "median of %d set-ups %.3v, each building %d kinds", len(setups), setups, len(spatialKinds))
	var heapSum int64
	for _, h := range heap {
		heapSum += h
	}
	res.set("mem_bytes_per_key", float64(heapSum)/float64(len(ixs)*len(d.pvs)))
	res.note("mem_bytes_per_key", "live heap of the %d indexes %d B / (%d x %d points)", len(ixs), heapSum, len(ixs), len(d.pvs))

	// The kinds take turns in short rounds over the whole window, so a slow
	// spell of the machine falls on all of them alike; a kind's figures are
	// the medians over its rounds.
	kinds := len(ixs)
	pos := make([]int, kinds)
	rates, speeds := make([][]float64, kinds), make([][]float64, kinds)
	round := opt.window(1.0 / float64(kinds*spatialRounds))
	for r := -spatialRounds / 10; r < spatialRounds; r++ { // rounds below 0 are the warm-up
		for k, ix := range ixs {
			if rate, speed := d.spatialLoop(ix, &pos[k], round, res); r >= 0 {
				rates[k], speeds[k] = append(rates[k], rate), append(speeds[k], speed)
			}
		}
	}
	var speed []float64
	for k := range ixs {
		speed = append(speed, median(speeds[k]))
		res.infof("%s: %.3f times the reference, %.0f queries/s (medians of %d rounds of %v)", spatialKinds[k], speed[k], median(rates[k]), spatialRounds, round)
	}
	res.set("speed_vs_ref", geomean(speed))
	res.note("speed_vs_ref", "geometric mean over %d kinds of the median round, one goroutine", kinds)
	return res, nil
}

// spanLoop calls one(q) on qs in turn, over and over, for window, with one
// span per batch queries. It returns the calls made and the summed span time.
func spanLoop(tr *tracer, name string, parent int, qs []*squery, window time.Duration, batch int, one func(q *squery)) (n int, spanNS int64) {
	id := tr.begin(name, parent, 0)
	pos := 0
	for t0, group := time.Now(), 0; time.Since(t0) < window; group++ {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			one(qs[pos])
			if pos++; pos == len(qs) {
				pos = 0
			}
		}
		dur := time.Since(b0)
		tr.add("batch", id, group, b0, dur)
		spanNS += dur.Nanoseconds()
		n += batch
	}
	tr.end(id)
	return n, spanNS
}

// spatialLayers is the traced run: per kind and per query class, the mean
// query time from spans around batches of one class.
func spatialLayers(d *spatialData, opt options, res *result, ixs []lix.SpatialIndex, buildS []float64, heap []int64) error {
	tr := newTracer()
	root := tr.begin("layers:"+spatialName, 0, 0)
	all := make([]*squery, len(d.queries))
	byClass := make([][]*squery, 4)
	for i := range d.queries {
		q := &d.queries[i]
		all[i] = q
		byClass[q.class] = append(byClass[q.class], q)
	}
	classes := []string{"point_us", "range_us_s1", "range_us_s2", "range_us_s3"}
	window := opt.window(0.2 / float64(len(classes)+1))
	var spanNS int64
	t0 := time.Now()

	for k, ix := range ixs {
		prefix := "spatial." + spatialKinds[k] + "."
		res.set(prefix+"build_s", buildS[k])
		res.set(prefix+"bytes_per_point", float64(heap[k])/float64(len(d.pvs)))
		kid := tr.begin(spatialKinds[k], root, 0)
		var results, work int64
		check := func(q *squery) {
			ok, count, sum, w := answer(ix, q)
			if !q.matches(ok, count, sum) {
				res.wrong++
			}
			results += int64(count)
			work += int64(w)
		}
		for class, qs := range byClass {
			n, ns := spanLoop(tr, classes[class], kid, qs, window, 256, check)
			res.set(prefix+classes[class], float64(ns)/1e3/float64(n))
			res.attempted += int64(n)
			spanNS += ns
		}
		if work > 0 {
			res.set(prefix+"useful_frac", float64(results)/float64(work))
		}
		if knn, ok := ix.(lix.KNNIndex); ok {
			n, ns := spanLoop(tr, "knn_us", kid, byClass[0], window, 256, func(q *squery) {
				if !knnOK(knn.KNN(q.p, spatialKNN), q) {
					res.wrong++
				}
			})
			res.set(prefix+"knn_us", float64(ns)/1e3/float64(n))
			res.attempted += int64(n)
			spanNS += ns
		}
		tr.end(kid)
	}
	res.set("trace.unexplained_frac", 1-float64(spanNS)/float64(time.Since(t0).Nanoseconds()))

	// The mixed stream on the baseline kind: with the
	// end-to-end run's loop and no spans, against one span per 64 queries.
	pos := 0
	plainRate, _ := d.spatialLoop(ixs[0], &pos, opt.window(0.1), res)
	n, ns := spanLoop(tr, "mixed", root, all, opt.window(0.1), 64, func(q *squery) {
		ok, count, sum, _ := answer(ixs[0], q)
		if !q.matches(ok, count, sum) {
			res.wrong++
		}
	})
	res.attempted += int64(n)
	res.set("trace.overhead_frac", 1-float64(n)/(float64(ns)/1e9)/plainRate)
	tr.end(root)
	path, err := tr.write(opt.outDir, spatialName)
	if err != nil {
		return err
	}
	res.infof("trace %s (%d spans)", path, len(tr.spans))
	return nil
}

// knnOK checks a k-nearest answer for lookup query q: k results in
// non-decreasing distance, the nearest being the point itself when it exists.
func knnOK(got []lix.PV, q *squery) bool {
	if len(got) != spatialKNN {
		return false
	}
	prev := -1.0
	for _, pv := range got {
		d := pv.Point.DistSq(q.p)
		if d < prev {
			return false
		}
		prev = d
	}
	return !q.ok || got[0].Point.DistSq(q.p) == 0
}
