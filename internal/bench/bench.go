package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/btree"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/flood"
	"github.com/lix-go/lix/internal/mlindex"
	"github.com/lix-go/lix/internal/pgm"
	"github.com/lix-go/lix/internal/qdtree"
	"github.com/lix-go/lix/internal/radixspline"
	"github.com/lix-go/lix/internal/rmi"
	"github.com/lix-go/lix/internal/xindex"
	"github.com/lix-go/lix/internal/zm"
)

// Config sizes a run. The experiments read N, Q and Seed. A gate runs at
// the size declared beside it in gates.go and takes from here only Seed
// and, where it has them, Shards and Workers. The wire client (RunLoadgen,
// the trace gate) reads Workers, Pipeline, Duration, N and Seed.
type Config struct {
	// N is the dataset size (records or points).
	N int
	// Q is the number of queries per measurement.
	Q int
	// Seed drives all generators.
	Seed int64
	// Shards is the shard count of a sharded stack.
	Shards int `json:",omitempty"`
	// Workers is the number of concurrent goroutines or connections.
	Workers int `json:",omitempty"`
	// Pipeline is the number of requests per pipelined group on the wire.
	Pipeline int `json:",omitempty"`
	// Duration is the wire client's send window: RunLoadgen's whole run,
	// one slice of the trace gate.
	Duration time.Duration `json:",omitempty"`
}

// DefaultConfig is the scale used for EXPERIMENTS.md.
func DefaultConfig() Config { return Config{N: 400000, Q: 50000, Seed: 7} }

// QuickConfig is a small scale for tests.
func QuickConfig() Config { return Config{N: 20000, Q: 4000, Seed: 7} }

// IDs lists the runnable experiments.
func IDs() []string {
	return []string{"E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19"}
}

// Run executes one experiment or gate by ID ("gates" runs every gate). A
// gate that misses a floor returns its tables together with the error.
func Run(id string, cfg Config) ([]*Table, error) {
	switch id {
	case "E4":
		return E4Lookup1D(cfg), nil
	case "E5":
		return E5Build1D(cfg), nil
	case "E6":
		return E6Insert1D(cfg), nil
	case "E7":
		return E7Range1D(cfg), nil
	case "E8":
		return E8ModelChoice(cfg), nil
	case "E9":
		return E9LearnedBloom(cfg), nil
	case "E10":
		return E10PointMD(cfg), nil
	case "E11":
		return E11RangeMD(cfg), nil
	case "E12":
		return E12KNN(cfg), nil
	case "E13":
		return E13InsertMD(cfg), nil
	case "E14":
		return E14Concurrent(cfg), nil
	case "E15":
		return E15Adversarial(cfg), nil
	case "E16":
		return E16Layout(cfg), nil
	case "E17":
		return E17SFC(cfg), nil
	case "E18":
		return E18LearnedLSM(cfg)
	case "E19":
		return E19DimSweep(cfg), nil
	default:
		return runGates(id, cfg)
	}
}

// randSrc aliases the generator type used across experiments.
type randSrc = rand.Rand

// newRand returns a deterministic generator.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// nsPerOp times fn over n operations.
func nsPerOp(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func mustKeys(kind dataset.Kind, n int, seed int64) []core.Key {
	keys, err := dataset.Keys(kind, n, seed)
	if err != nil {
		panic(err)
	}
	return keys
}

func mustPoints(kind dataset.SpatialKind, n, dim int, seed int64) []core.Point {
	pts, err := dataset.Points(kind, n, dim, seed)
	if err != nil {
		panic(err)
	}
	return pts
}

var bench1DKinds = []dataset.Kind{dataset.Uniform, dataset.Lognormal, dataset.Clustered}

// E4Lookup1D — learned vs traditional 1-D lookup latency and index size.
func E4Lookup1D(cfg Config) []*Table {
	t := &Table{
		ID:      "E4",
		Title:   "1-D point lookup: latency and index size (learned vs traditional)",
		Columns: []string{"dataset", "index", "ns/lookup", "index_KiB", "data_KiB", "models", "height"},
	}
	for _, kind := range bench1DKinds {
		keys := mustKeys(kind, cfg.N, cfg.Seed)
		recs := dataset.KV(keys)
		probes := dataset.LookupMix(keys, cfg.Q, 0.9, cfg.Seed+1)
		for _, name := range lix.Static1DKinds() {
			ix, err := lix.Build1D(name, recs)
			if err != nil {
				panic(err)
			}
			var sink core.Value
			ns := nsPerOp(len(probes), func() {
				for _, p := range probes {
					v, _ := ix.Get(p)
					sink += v
				}
			})
			_ = sink
			st := ix.Stats()
			t.AddRow(string(kind), name, ns, st.IndexBytes/1024, st.DataBytes/1024, st.Models, st.Height)
		}
	}
	return []*Table{t}
}

// E5Build1D — construction time.
func E5Build1D(cfg Config) []*Table {
	t := &Table{
		ID:      "E5",
		Title:   "1-D index construction time",
		Columns: []string{"dataset", "index", "build_ms", "MiB"},
	}
	for _, kind := range bench1DKinds {
		keys := mustKeys(kind, cfg.N, cfg.Seed)
		recs := dataset.KV(keys)
		for _, name := range lix.Static1DKinds() {
			start := time.Now()
			ix, err := lix.Build1D(name, recs)
			if err != nil {
				panic(err)
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			st := ix.Stats()
			t.AddRow(string(kind), name, ms, float64(st.IndexBytes+st.DataBytes)/(1<<20))
		}
	}
	return []*Table{t}
}

// E6Insert1D — in-place vs delta-buffer updatable indexes.
func E6Insert1D(cfg Config) []*Table {
	t := &Table{
		ID:      "E6",
		Title:   "1-D updatable indexes: insert-only and mixed workloads (Mops/s)",
		Columns: []string{"index", "insert_only", "read95_write5", "read50_write50"},
	}
	keys := mustKeys(dataset.Lognormal, cfg.N, cfg.Seed)
	r := newRand(cfg.Seed + 2)
	perm := r.Perm(len(keys))
	for _, name := range lix.Mutable1DKinds() {
		// Insert-only, random order.
		ix, err := lix.BuildMutable1D(name)
		if err != nil {
			panic(err)
		}
		insNs := nsPerOp(len(perm), func() {
			for _, i := range perm {
				ix.Insert(keys[i], core.Value(i))
			}
		})
		mixed := func(readFrac float64) float64 {
			ix2, _ := lix.BuildMutable1D(name)
			// Preload half.
			for _, i := range perm[:len(perm)/2] {
				ix2.Insert(keys[i], core.Value(i))
			}
			rr := newRand(cfg.Seed + 3)
			next := len(perm) / 2
			ops := cfg.Q
			return nsPerOp(ops, func() {
				for o := 0; o < ops; o++ {
					if rr.Float64() < readFrac {
						ix2.Get(keys[rr.Intn(len(keys))])
					} else {
						i := perm[next%len(perm)]
						next++
						ix2.Insert(keys[i], core.Value(i))
					}
				}
			})
		}
		r95 := mixed(0.95)
		r50 := mixed(0.50)
		t.AddRow(name, 1000/insNs, 1000/r95, 1000/r50)
	}
	return []*Table{t}
}

// E7Range1D — range scans across selectivities.
func E7Range1D(cfg Config) []*Table {
	t := &Table{
		ID:      "E7",
		Title:   "1-D range queries: microseconds per query by selectivity",
		Columns: []string{"index", "sel=1e-5", "sel=1e-4", "sel=1e-3", "sel=1e-2"},
	}
	keys := mustKeys(dataset.Clustered, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	sels := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	for _, name := range lix.Static1DKinds() {
		ix, err := lix.Build1D(name, recs)
		if err != nil {
			panic(err)
		}
		row := []interface{}{name}
		for _, sel := range sels {
			qs := dataset.Ranges(keys, 200, sel, cfg.Seed+4)
			var sink int
			ns := nsPerOp(len(qs), func() {
				for _, q := range qs {
					sink += ix.Range(q.Lo, q.Hi, func(core.Key, core.Value) bool { return true })
				}
			})
			_ = sink
			row = append(row, ns/1000)
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

// E8ModelChoice — PGM ε sweep and RMI fanout sweep (§6.2: choice of model).
func E8ModelChoice(cfg Config) []*Table {
	keys := mustKeys(dataset.Lognormal, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	probes := dataset.LookupMix(keys, cfg.Q, 1.0, cfg.Seed+5)

	pgmT := &Table{
		ID:      "E8a",
		Title:   "PGM ε sweep: model size vs lookup latency",
		Columns: []string{"epsilon", "segments", "levels", "model_KiB", "ns/lookup"},
	}
	for _, eps := range []int{8, 16, 32, 64, 128, 256, 512} {
		ix, err := pgm.Build(recs, eps)
		if err != nil {
			panic(err)
		}
		var sink core.Value
		ns := nsPerOp(len(probes), func() {
			for _, p := range probes {
				v, _ := ix.Get(p)
				sink += v
			}
		})
		_ = sink
		pgmT.AddRow(eps, ix.SegmentCount(), ix.Levels(), ix.Stats().IndexBytes/1024, ns)
	}

	rmiT := &Table{
		ID:      "E8b",
		Title:   "RMI stage-2 fanout sweep: window vs latency",
		Columns: []string{"stage2", "avg_window", "max_err", "index_KiB", "ns/lookup"},
	}
	for _, fanout := range []int{64, 256, 1024, 4096, 16384} {
		ix, err := rmi.Build(recs, rmi.Config{Stage2: fanout})
		if err != nil {
			panic(err)
		}
		var sink core.Value
		ns := nsPerOp(len(probes), func() {
			for _, p := range probes {
				v, _ := ix.Get(p)
				sink += v
			}
		})
		_ = sink
		rmiT.AddRow(fanout, ix.AvgWindow(), ix.MaxAbsError(), ix.Stats().IndexBytes/1024, ns)
	}
	return []*Table{pgmT, rmiT}
}

// E9LearnedBloom — learned Bloom filter FPR vs space (§6.6).
func E9LearnedBloom(cfg Config) []*Table {
	t := &Table{
		ID:      "E9",
		Title:   "Membership filters: observed FPR by bits/key (learnable key set)",
		Columns: []string{"filter", "6 bits/key", "8 bits/key", "10 bits/key", "14 bits/key"},
	}
	n := cfg.N / 4
	keys, trainNegs, testNegs := learnableFilterSet(n, cfg.Seed)
	build := map[string]func(bits uint64) lix.MembershipFilter{
		"bloom": func(bits uint64) lix.MembershipFilter {
			f := lix.NewBloomFilterBits(bits, len(keys))
			for _, k := range keys {
				f.Add(k)
			}
			return f
		},
		"learned": func(bits uint64) lix.MembershipFilter {
			f, err := lix.TrainLearnedBF(keys, trainNegs, bits)
			if err != nil {
				panic(err)
			}
			return f
		},
		"sandwiched": func(bits uint64) lix.MembershipFilter {
			f, err := lix.TrainSandwichedBF(keys, trainNegs, bits)
			if err != nil {
				panic(err)
			}
			return f
		},
		"partitioned": func(bits uint64) lix.MembershipFilter {
			f, err := lix.TrainPartitionedBF(keys, trainNegs, bits, 0)
			if err != nil {
				panic(err)
			}
			return f
		},
	}
	for _, name := range []string{"bloom", "learned", "sandwiched", "partitioned"} {
		row := []interface{}{name}
		for _, bpk := range []int{6, 8, 10, 14} {
			f := build[name](uint64(bpk * len(keys)))
			row = append(row, lix.MeasureFPR(f, testNegs))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

// learnableFilterSet mirrors the structured key sets used in the learned
// Bloom filter papers: keys live in a dense band, negatives outside it.
func learnableFilterSet(n int, seed int64) (keys, trainNeg, testNeg []core.Key) {
	r := newRand(seed)
	seen := map[core.Key]bool{}
	for len(keys) < n {
		k := core.Key(1<<40 + r.Int63n(1<<30))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	gen := func(m int, rr *randSrc) []core.Key {
		var out []core.Key
		for len(out) < m {
			var k core.Key
			if rr.Intn(2) == 0 {
				k = core.Key(rr.Int63n(1 << 40))
			} else {
				k = core.Key(1<<41 + rr.Int63n(1<<45))
			}
			if !seen[k] {
				out = append(out, k)
			}
		}
		return out
	}
	return keys, gen(n, newRand(seed+1)), gen(n, newRand(seed+2))
}

var benchSpatialKinds = []dataset.SpatialKind{dataset.SUniform, dataset.SOSMLike, dataset.SSkewed}

// E10PointMD — multi-dimensional exact-point queries.
func E10PointMD(cfg Config) []*Table {
	t := &Table{
		ID:      "E10",
		Title:   "Multi-dimensional exact-point queries (2-D): ns/query",
		Columns: []string{"dataset", "index", "ns/lookup", "index_KiB"},
	}
	n := cfg.N / 2
	for _, kind := range benchSpatialKinds {
		pts := mustPoints(kind, n, 2, cfg.Seed)
		pvs := dataset.PV(pts)
		queries := dataset.KNNQueries(pts, cfg.Q/10, cfg.Seed+6)
		for _, name := range lix.SpatialKinds() {
			ix, err := lix.BuildSpatial(name, pvs)
			if err != nil {
				panic(err)
			}
			// Half the probes are existing points (hits), half perturbed.
			var sink int
			ns := nsPerOp(len(queries)+len(pvs)/10, func() {
				for i := 0; i < len(pvs); i += 10 {
					if _, ok := ix.Lookup(pvs[i].Point); ok {
						sink++
					}
				}
				for _, q := range queries {
					if _, ok := ix.Lookup(q); ok {
						sink++
					}
				}
			})
			_ = sink
			t.AddRow(string(kind), name, ns, ix.Stats().IndexBytes/1024)
		}
	}
	return []*Table{t}
}

// E11RangeMD — multi-dimensional range queries across selectivities.
func E11RangeMD(cfg Config) []*Table {
	t := &Table{
		ID:      "E11",
		Title:   "Multi-dimensional range queries (2-D, osm-like): µs/query (work units), bytes per point from Stats",
		Columns: []string{"index", "sel=1e-4", "sel=1e-3", "sel=1e-2", "sel=1e-1", "B/point"},
	}
	n := cfg.N / 2
	pts := mustPoints(dataset.SOSMLike, n, 2, cfg.Seed)
	pvs := dataset.PV(pts)
	for _, name := range lix.SpatialKinds() {
		ix, err := lix.BuildSpatial(name, pvs)
		if err != nil {
			panic(err)
		}
		row := []interface{}{name}
		for _, sel := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
			qs := dataset.RectQueries(pts, 100, sel, cfg.Seed+7)
			us, work, _ := timeSearch(ix.Search, qs)
			row = append(row, fmt.Sprintf("%s (%d)", formatFloat(us), work/len(qs)))
		}
		t.AddRow(append(row, bytesPerPoint(ix))...)
	}
	return []*Table{t}
}

// E12KNN — k-nearest-neighbor queries.
func E12KNN(cfg Config) []*Table {
	t := &Table{
		ID:      "E12",
		Title:   "k-nearest-neighbor queries (2-D, osm-like): µs/query, bytes per point from Stats",
		Columns: []string{"index", "k=1", "k=10", "k=100", "B/point"},
	}
	n := cfg.N / 2
	pts := mustPoints(dataset.SOSMLike, n, 2, cfg.Seed)
	pvs := dataset.PV(pts)
	queries := dataset.KNNQueries(pts, 200, cfg.Seed+8)
	for _, name := range []string{"rtree", "kdtree", "quadtree", "grid", "zm", "mlindex", "flood", "lisa"} {
		ixAny, err := lix.BuildSpatial(name, pvs)
		if err != nil {
			panic(err)
		}
		ix := ixAny.(lix.KNNIndex)
		row := []interface{}{name}
		for _, k := range []int{1, 10, 100} {
			var sink int
			ns := nsPerOp(len(queries), func() {
				for _, q := range queries {
					sink += len(ix.KNN(q, k))
				}
			})
			_ = sink
			row = append(row, ns/1000)
		}
		t.AddRow(append(row, bytesPerPoint(ix))...)
	}
	return []*Table{t}
}

// E13InsertMD — multi-dimensional updates (LISA delta vs R-tree).
func E13InsertMD(cfg Config) []*Table {
	t := &Table{
		ID:      "E13",
		Title:   "Multi-dimensional inserts into a pre-built index (2-D): Mops/s, bytes per point from Stats after the inserts",
		Columns: []string{"index", "insert_Mops", "query_after_us", "B/point"},
	}
	n := cfg.N / 2
	pts := mustPoints(dataset.SOSMLike, n, 2, cfg.Seed)
	extra := mustPoints(dataset.SOSMLike, n/2, 2, cfg.Seed+9)
	queries := dataset.RectQueries(pts, 100, 1e-3, cfg.Seed+10)
	for _, name := range []string{"rtree", "quadtree", "grid", "lisa"} {
		ixAny, err := lix.BuildSpatial(name, dataset.PV(pts))
		if err != nil {
			panic(err)
		}
		ix := ixAny.(lix.MutableSpatialIndex)
		insNs := nsPerOp(len(extra), func() {
			for i, p := range extra {
				if err := ix.Insert(p, core.Value(1<<40+i)); err != nil {
					panic(err)
				}
			}
		})
		qUs, _, _ := timeSearch(ix.Search, queries)
		t.AddRow(name, 1000/insNs, qUs, bytesPerPoint(ix))
	}
	return []*Table{t}
}

// bytesPerPoint is what ix's Stats say it keeps a point, index and data.
func bytesPerPoint(ix lix.SpatialIndex) string {
	st := ix.Stats()
	return fmt.Sprintf("%.1f", float64(st.IndexBytes+st.DataBytes)/float64(max(st.Count, 1)))
}

// E14Concurrent — XIndex scaling vs a globally-locked B-tree (§6.5).
func E14Concurrent(cfg Config) []*Table {
	t := &Table{
		ID:      "E14",
		Title:   "Concurrent throughput, 95% reads / 5% writes (Mops/s total)",
		Columns: []string{"index", "1 goroutine", "2", "4", fmt.Sprintf("%d (NumCPU)", runtime.NumCPU())},
	}
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	gs := []int{1, 2, 4, runtime.NumCPU()}

	runWorkload := func(get func(core.Key), put func(core.Key, core.Value), workers int) float64 {
		opsPer := cfg.Q / workers
		if opsPer < 1 {
			opsPer = 1
		}
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				r := newRand(cfg.Seed + int64(id))
				for o := 0; o < opsPer; o++ {
					k := keys[r.Intn(len(keys))]
					if r.Float64() < 0.95 {
						get(k)
					} else {
						put(k, core.Value(o))
					}
				}
			}(w)
		}
		wg.Wait()
		total := float64(opsPer * workers)
		return total / float64(time.Since(start).Nanoseconds()) * 1000 // Mops/s
	}

	// XIndex.
	x, err := xindex.Bulk(recs, 0, 0)
	if err != nil {
		panic(err)
	}
	rowX := []interface{}{"xindex"}
	for _, g := range gs {
		rowX = append(rowX, runWorkload(func(k core.Key) { x.Get(k) }, func(k core.Key, v core.Value) { x.Insert(k, v) }, g))
	}
	t.AddRow(rowX...)

	// Globally-locked B-tree.
	bt, err := btree.Bulk(btree.DefaultOrder, recs)
	if err != nil {
		panic(err)
	}
	var mu sync.RWMutex
	rowB := []interface{}{"btree+RWMutex"}
	for _, g := range gs {
		rowB = append(rowB, runWorkload(
			func(k core.Key) { mu.RLock(); bt.Get(k); mu.RUnlock() },
			func(k core.Key, v core.Value) { mu.Lock(); bt.Insert(k, v); mu.Unlock() },
			g))
	}
	t.AddRow(rowB...)
	return []*Table{t}
}

// E15Adversarial — worst-case guarantees under adversarial keys (§6.7).
func E15Adversarial(cfg Config) []*Table {
	t := &Table{
		ID:      "E15",
		Title:   "Adversarial key distribution: average and tail lookup cost",
		Columns: []string{"index", "avg_ns", "p99_ns", "max_search_window"},
	}
	keys := mustKeys(dataset.Adversarial, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	probes := dataset.LookupMix(keys, cfg.Q, 1.0, cfg.Seed+11)
	type entry struct {
		name   string
		ix     lix.Index
		window int
	}
	pg, _ := pgm.Build(recs, 32)
	rm, _ := rmi.Build(recs, rmi.Config{})
	bt, _ := btree.Bulk(btree.DefaultOrder, recs)
	entries := []entry{
		{"pgm(eps=32)", pg, 2*pg.Epsilon() + 3},
		{"rmi", rm, rm.MaxAbsError()*2 + 1},
		{"btree", bt, 0},
	}
	for _, e := range entries {
		lat := make([]float64, 0, len(probes))
		var sink core.Value
		for _, p := range probes {
			s := time.Now()
			v, _ := e.ix.Get(p)
			lat = append(lat, float64(time.Since(s).Nanoseconds()))
			sink += v
		}
		_ = sink
		sort.Float64s(lat)
		var sum float64
		for _, l := range lat {
			sum += l
		}
		t.AddRow(e.name, sum/float64(len(lat)), lat[len(lat)*99/100], e.window)
	}
	return []*Table{t}
}

// E16Layout — Flood's learned layout vs fixed layouts (§5.4 ablation).
func E16Layout(cfg Config) []*Table {
	t := &Table{
		ID:      "E16",
		Title:   "Layout learning ablation (2-D, correlated data, skewed queries): µs/query",
		Columns: []string{"layout", "us/query", "avg_work_units"},
	}
	n := cfg.N / 2
	pts := mustPoints(dataset.SDiagonal, n, 2, cfg.Seed)
	pvs := dataset.PV(pts)
	train := dataset.RectQueries(pts, 100, 1e-3, cfg.Seed+12)
	test := dataset.RectQueries(pts, 200, 1e-3, cfg.Seed+13)

	type layout struct {
		name   string
		search searchFunc
	}
	tuned, err := flood.Build(pvs, flood.Config{Queries: train})
	if err != nil {
		panic(err)
	}
	uniformCols := []int{64, 1}
	uniformIx, err := flood.Build(pvs, flood.Config{SortDim: 1, Cols: uniformCols})
	if err != nil {
		panic(err)
	}
	qd, err := qdtree.Build(pvs, train, qdtree.Config{})
	if err != nil {
		panic(err)
	}
	layouts := []layout{
		{"flood-tuned", tuned.Search},
		{"flood-fixed64", uniformIx.Search},
		{"qdtree", func(q core.Rect, fn func(core.PV) bool) (int, int) {
			v, _, scanned := qd.Search(q, fn)
			return v, scanned
		}},
	}
	for _, l := range layouts {
		us, work, _ := timeSearch(l.search, test)
		t.AddRow(l.name, us, work/len(test))
	}
	return []*Table{t}
}

// E17SFC — space-filling-curve ablation: Z-order vs Hilbert at exact
// decomposition, the curve-level sweep of the ZM-index at its default
// interval budget, with the level its cost model picks marked (the
// projection machinery behind Approach 2), and the projected engine's 1-D
// search (e17Search). Each counts candidates scanned.
func E17SFC(cfg Config) []*Table {
	n := cfg.N / 2
	pts := mustPoints(dataset.SOSMLike, n, 2, cfg.Seed)
	pvs := dataset.PV(pts)
	// run times the queries as the best of three passes: one pass of a few
	// hundred microsecond queries jitters by 2× on a small host.
	run := func(search searchFunc, qs []core.Rect) (us float64, cands int) {
		for pass := 0; pass < 3; pass++ {
			t, c, _ := timeSearch(search, qs)
			if pass == 0 || t < us {
				us, cands = t, c
			}
		}
		return us, cands / len(qs)
	}

	curveT := &Table{
		ID:      "E17a",
		Title:   "ZM-index curve ablation (2-D, osm-like, exact decomposition): Z-order vs Hilbert",
		Columns: []string{"curve", "level", "sel", "us/query", "avg_candidates"},
	}
	for _, curve := range []zm.CurveKind{zm.CurveZ, zm.CurveHilbert} {
		ix, err := zm.Build(pvs, zm.Config{Curve: curve, MaxRanges: 1 << 20})
		if err != nil {
			panic(err)
		}
		for _, sel := range []float64{1e-4, 1e-2} {
			us, cands := run(ix.Search, dataset.RectQueries(pts, 100, sel, cfg.Seed+20))
			curveT.AddRow(string(curve), ix.Level(), sel, us, cands)
		}
	}

	levelT := &Table{
		ID:      "E17b",
		Title:   "ZM-index curve-level sweep (2-D, osm-like, default budget): us/query and candidates per selectivity",
		Columns: []string{"level", "us 1e-5", "us 1e-4", "us 1e-3", "cands 1e-5", "cands 1e-4", "cands 1e-3", "tuned"},
	}
	var queries [][]core.Rect
	for i, sel := range []float64{1e-5, 1e-4, 1e-3} {
		queries = append(queries, dataset.RectQueries(pts, 200, sel, cfg.Seed+int64(21+i)))
	}
	tuned, err := zm.Build(pvs, zm.Config{})
	if err != nil {
		panic(err)
	}
	for level := uint(6); ; level++ {
		ix, err := tuned.AtLevel(level)
		if err != nil {
			break // past the stored codes' Bits
		}
		row := []interface{}{level}
		var cands []interface{}
		for _, qs := range queries {
			us, c := run(ix.Search, qs)
			row, cands = append(row, us), append(cands, c)
		}
		mark := ""
		if level == tuned.Level() {
			mark = "*"
		}
		levelT.AddRow(append(append(row, cands...), mark)...)
	}
	return []*Table{curveT, levelT, e17Search(pts, tuned, cfg.Seed)}
}

// searchFunc is a spatial index's rectangle search.
type searchFunc = func(core.Rect, func(core.PV) bool) (visited, candidates int)

// timeSearch runs every query through search once and returns the µs a
// query took, and the candidates and results of all of them.
func timeSearch(search searchFunc, qs []core.Rect) (us float64, cands, results int) {
	ns := nsPerOp(len(qs), func() {
		for _, q := range qs {
			r, c := search(q, func(core.PV) bool { return true })
			cands, results = cands+c, results+r
		}
	})
	return ns / 1000, cands, results
}

// e17Search is E17's search column: each projected mapping (z, the tuned
// Z-curve; the Hilbert curve; the ML-Index's sectors) at E11's
// selectivities, the first search of its key column done by binary search,
// a PGM-index or a RadixSpline over the same keys. Each searcher runs on a
// copy of the index that shares its column and replaces its Locate. The
// host runs the same search up to twice as slow in spells of seconds, so a
// cell is timed in e17Passes passes, each of which runs every cell in turn,
// over e17Rects rectangles in blocks of e17Block: a block's time is the
// fastest of its passes, which takes a few milliseconds each, and a cell
// is the mean of its blocks'.
func e17Search(pts []core.Point, z *zm.Index, seed int64) *Table {
	const e17Passes, e17Rects, e17Block = 15, 300, 25
	pvs := dataset.PV(pts)
	h, err := zm.Build(pvs, zm.Config{Curve: zm.CurveHilbert})
	if err != nil {
		panic(err)
	}
	m, err := mlindex.Build(pvs, mlindex.Config{})
	if err != nil {
		panic(err)
	}
	mappings := []struct {
		name string
		keys []uint32
		at   func(locate func(uint32) int) searchFunc
	}{
		{"z", z.Keys, func(f func(uint32) int) searchFunc { c := *z; c.Locate = f; return c.Search }},
		{"hilbert", h.Keys, func(f func(uint32) int) searchFunc { c := *h; c.Locate = f; return c.Search }},
		{"sector", m.Keys, func(f func(uint32) int) searchFunc { c := *m; c.Locate = f; return c.Search }},
	}
	searchers := []string{"binary", "pgm", "radixspline"}
	sels := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	t := &Table{
		ID:      "E17c",
		Title:   "Projected engine by 1-D search (2-D, osm-like): us/query and candidates per result at E11's selectivities",
		Columns: []string{"mapping", "search", "us 1e-4", "us 1e-3", "us 1e-2", "us 1e-1", "cand/res 1e-4", "cand/res 1e-3", "cand/res 1e-2", "cand/res 1e-1"},
	}
	// searches[mi][s] is mapping mi searched by searcher s.
	searches := make([][]searchFunc, len(mappings))
	for mi, mp := range mappings {
		// The learned searchers take 64-bit keys: they index the column
		// widened, and are asked the widened key.
		wide := make([]core.Key, len(mp.keys))
		recs := make([]core.KV, len(mp.keys))
		for i, k := range mp.keys {
			wide[i], recs[i] = core.Key(k), core.KV{Key: core.Key(k), Value: core.Value(i)}
		}
		pg, err := pgm.BuildKeys(wide, 0)
		if err != nil {
			panic(err)
		}
		rs, err := radixspline.Build(recs, 0, 0)
		if err != nil {
			panic(err)
		}
		searches[mi] = []searchFunc{mp.at(nil),
			mp.at(func(k uint32) int { return pg.LowerBound(core.Key(k)) }),
			mp.at(func(k uint32) int { return rs.LowerBound(core.Key(k)) })}
	}
	qs := make([][]core.Rect, len(sels))
	for i, sel := range sels {
		qs[i] = dataset.RectQueries(pts, e17Rects, sel, seed+7)
	}
	// blocksOf(mi, s, i) holds each block's fastest pass at selectivity i
	// under mapping mi and searcher s; ratios[mi][i] is mi's candidates per
	// result at i.
	blocks := e17Rects / e17Block
	best := make([]float64, len(mappings)*len(searchers)*len(sels)*blocks)
	blocksOf := func(mi, s, i int) []float64 {
		at := ((mi*len(searchers)+s)*len(sels) + i) * blocks
		return best[at : at+blocks]
	}
	ratios := make([][]interface{}, len(mappings))
	for pass := 0; pass < e17Passes; pass++ {
		for mi := range mappings {
			ratios[mi] = make([]interface{}, len(sels))
			for i, sel := range sels {
				var cands, results [3]int
				for s, search := range searches[mi] {
					for b, fastest := range blocksOf(mi, s, i) {
						u, c, r := timeSearch(search, qs[i][b*e17Block:(b+1)*e17Block])
						if pass == 0 || u < fastest {
							blocksOf(mi, s, i)[b] = u
						}
						cands[s], results[s] = cands[s]+c, results[s]+r
					}
					if results[s] != results[0] {
						panic(fmt.Sprintf("bench: %s over %s found %d points at sel %g, %s %d", searchers[s], mappings[mi].name, results[s], sel, searchers[0], results[0]))
					}
				}
				ratios[mi][i] = float64(cands[0]) / float64(max(results[0], 1))
			}
		}
	}
	for mi, mp := range mappings {
		for s, name := range searchers {
			row := []interface{}{mp.name, name}
			for i := range sels {
				var sum float64
				for _, u := range blocksOf(mi, s, i) {
					sum += u
				}
				row = append(row, sum/float64(blocks))
			}
			t.AddRow(append(row, ratios[mi]...)...)
		}
	}
	return t
}

// E19DimSweep — the curse of dimensionality (paper §5.1 motivation): how
// point and range query cost grows with dimensionality for traditional vs
// learned multi-dimensional indexes, and what each build costs (flood's
// layout enumeration grows with the dimension).
func E19DimSweep(cfg Config) []*Table {
	t := &Table{
		ID:      "E19",
		Title:   "Dimensionality sweep (uniform, sel=1e-3 ranges): µs/query, build ms, bytes per point from Stats",
		Columns: []string{"index", "op", "d=2", "d=3", "d=4", "d=5"},
	}
	n := cfg.N / 4
	dims := []int{2, 3, 4, 5}
	kinds := []string{"rtree", "kdtree", "grid", "zm", "flood", "lisa", "mlindex"}
	point := map[string][]interface{}{}
	rng := map[string][]interface{}{}
	build, bytes := map[string][]interface{}{}, map[string][]interface{}{}
	for _, d := range dims {
		pts := mustPoints(dataset.SUniform, n, d, cfg.Seed)
		pvs := dataset.PV(pts)
		queries := dataset.RectQueries(pts, 100, 1e-3, cfg.Seed+30)
		for _, kind := range kinds {
			start := time.Now()
			ix, err := lix.BuildSpatial(kind, pvs)
			if err != nil {
				panic(err)
			}
			build[kind] = append(build[kind], float64(time.Since(start).Microseconds())/1000)
			bytes[kind] = append(bytes[kind], bytesPerPoint(ix))
			var sink int
			pNs := nsPerOp(n/10, func() {
				for i := 0; i < n; i += 10 {
					if _, ok := ix.Lookup(pvs[i].Point); ok {
						sink++
					}
				}
			})
			rUs, _, _ := timeSearch(ix.Search, queries)
			_ = sink
			point[kind] = append(point[kind], pNs/1000)
			rng[kind] = append(rng[kind], rUs)
		}
	}
	for _, kind := range kinds {
		t.AddRow(append([]interface{}{kind, "point"}, point[kind]...)...)
	}
	for _, kind := range kinds {
		t.AddRow(append([]interface{}{kind, "range"}, rng[kind]...)...)
	}
	for _, kind := range kinds {
		t.AddRow(append([]interface{}{kind, "build ms"}, build[kind]...)...)
	}
	for _, kind := range kinds {
		t.AddRow(append([]interface{}{kind, "B/point"}, bytes[kind]...)...)
	}
	return []*Table{t}
}
