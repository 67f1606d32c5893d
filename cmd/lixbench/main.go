// Command lixbench runs the lix experiment suite (E4–E19 from DESIGN.md)
// and prints the result tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	lixbench -e E4            # one experiment at default scale
//	lixbench -e all -n 100000 # whole suite at a custom dataset size
//	lixbench -list            # list experiments
//
// Sharded serving mode and the benchmark regression harness:
//
//	lixbench -shards 8 -concurrency 8          # serving throughput table
//	                                           # (baseline vs sharded vs
//	                                           # xindex, 95/5 and 50/50)
//	lixbench -shards 8 -concurrency 8 -rev abc -bench-out .
//	                                           # also write BENCH_abc.json
//	lixbench -compare BENCH_old.json,BENCH_new.json
//	                                           # exit 1 if any result
//	                                           # regressed by >15%
//	lixbench -batch 16,256,1024 -shards 8      # batched vs looped ops
//	                                           # (results merge into an
//	                                           # existing BENCH_<rev>.json)
//	lixbench -obs-overhead -shards 8 -concurrency 4
//	                                           # serving mix against a bare
//	                                           # and a Metrics-attached
//	                                           # stack; gates observed >=
//	                                           # 0.85x bare
//	lixbench -trace-overhead -quick            # tracing cost off/1%/100%
//	                                           # vs no tracer; gates the
//	                                           # disabled-sampling cost <2%
//	lixbench -paged -quick                     # paged indexes: cold vs
//	                                           # warm buffer-pool lookups;
//	                                           # gates warm >= 3x cold
//	lixbench -lsm -quick                       # checkpoint engines under
//	                                           # write load; gates LSM
//	                                           # ckpt rate >= 2x snapshot
//
// Profiling and metrics:
//
//	lixbench -e E4 -cpuprofile cpu.out   # write a pprof CPU profile
//	lixbench -e E4 -memprofile mem.out   # write a pprof heap profile
//	lixbench -e all -metrics out.json    # dump config, per-experiment wall
//	                                     # times and the process-wide search
//	                                     # metrics (probe/window histograms)
//	                                     # as JSON
//
// Profiles are written in runtime/pprof format; inspect them with
// `go tool pprof cpu.out`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/bench"
)

// metricsReport is the -metrics JSON document.
type metricsReport struct {
	Config      bench.Config        `json:"config"`
	Experiments []experimentTiming  `json:"experiments"`
	Metrics     lix.MetricsSnapshot `json:"metrics"`
}

type experimentTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

func main() {
	var (
		exp        = flag.String("e", "all", "experiment ID (E4..E19) or 'all'")
		n          = flag.Int("n", 0, "dataset size (0 = default)")
		q          = flag.Int("q", 0, "queries per measurement (0 = default)")
		seed       = flag.Int64("seed", 7, "generator seed")
		quick      = flag.Bool("quick", false, "small quick-check scale")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		metricsOut = flag.String("metrics", "", "write run metrics JSON to this file")
		cpuOut     = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memOut     = flag.String("memprofile", "", "write a pprof heap profile to this file")

		shards      = flag.Int("shards", 0, "serving mode: shard count (enables the serving benchmark)")
		concurrency = flag.Int("concurrency", 0, "serving mode: worker goroutines (enables the serving benchmark)")
		rev         = flag.String("rev", "dev", "revision label for -bench-out")
		benchOut    = flag.String("bench-out", "", "serving mode: write BENCH_<rev>.json into this directory")
		compare     = flag.String("compare", "", "compare two bench files, 'old.json,new.json'; exit 1 on >15% regression")

		durable = flag.Bool("durable", false, "durability mode: measure WAL insert throughput and cold-start recovery")
		fsync   = flag.String("fsync", "all", "durability mode: fsync policy to measure (always|interval|never|all)")

		batch = flag.String("batch", "", "batch mode: comma-separated batch sizes, e.g. '16,256,1024'")

		paged = flag.Bool("paged", false, "paged mode: cold vs warm buffer-pool lookup throughput for the disk-backed paged indexes")

		lsm = flag.Bool("lsm", false, "storage-engine mode: checkpoint cost under write load, LSM vs snapshot; gates LSM ckpt >= 2x snapshot")

		serveAddr = flag.String("serve-addr", "", "loadgen mode: drive a running lixserve at this address")
		pipeline  = flag.Int("pipeline", 32, "loadgen mode: requests per pipelined group")
		targetQPS = flag.Float64("target-qps", 0, "loadgen mode: open-loop aggregate request rate (0 = closed loop)")
		duration  = flag.Duration("duration", 5*time.Second, "loadgen mode: measured send window")

		traceOver = flag.Bool("trace-overhead", false, "measure request-tracing overhead (off/1%/100% sampling vs no tracer)")
		obsOver   = flag.Bool("obs-overhead", false, "serving mode: observed vs bare sharded stack on the 95/5 mix; gates observed >= 0.85x bare")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(bench.IDs(), " "))
		return
	}
	if *compare != "" {
		compareBenchFiles(*compare)
		return
	}

	// Profiles cover every mode below (serving, batch, durable, loadgen,
	// trace-overhead and the experiment suite): the CPU profile brackets
	// the whole run and the heap profile is written at exit. They used to
	// be wired only into the experiment path, which made the serving
	// modes — the ones the scaling work needed profiled — unprofilable.
	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memOut != "" {
		defer func() {
			f, err := os.Create(*memOut)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize live-heap stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	if *serveAddr != "" {
		runLoadgen(*serveAddr, *pipeline, *targetQPS, *duration, *concurrency, *n, *seed, *quick, *rev, *benchOut)
		return
	}
	if *traceOver {
		runTraceOverhead(*pipeline, *duration, *concurrency, *shards, *n, *seed, *quick, *rev, *benchOut)
		return
	}
	if *batch != "" {
		runBatch(*batch, *shards, *n, *q, *seed, *quick, *rev, *benchOut)
		return
	}
	if *paged {
		runPaged(*n, *q, *seed, *quick, *rev, *benchOut)
		return
	}
	if *lsm {
		runLSM(*n, *q, *seed, *quick, *rev, *benchOut)
		return
	}
	if *durable {
		runDurable(*fsync, *shards, *concurrency, *n, *q, *seed, *quick, *rev, *benchOut)
		return
	}
	if *obsOver {
		runObsOverhead(*shards, *concurrency, *n, *q, *seed, *quick, *rev, *benchOut)
		return
	}
	if *shards > 0 || *concurrency > 0 {
		runServing(*shards, *concurrency, *n, *q, *seed, *quick, *rev, *benchOut)
		return
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *q > 0 {
		cfg.Q = *q
	}
	cfg.Seed = *seed

	var m *lix.Metrics
	if *metricsOut != "" {
		// Route every last-mile search in the run into one bundle so the
		// report carries probe-count and error-window histograms.
		m = lix.NewMetrics("lixbench")
		lix.EnableSearchMetrics(m)
		defer lix.DisableSearchMetrics()
	}

	ids := bench.IDs()
	if *exp != "all" {
		ids = []string{*exp}
	}
	var timings []experimentTiming
	for _, id := range ids {
		start := time.Now()
		tables, err := bench.Run(id, cfg)
		if err != nil {
			fatal(err)
		}
		timings = append(timings, experimentTiming{ID: id, Seconds: time.Since(start).Seconds()})
		for _, t := range tables {
			t.Render(os.Stdout)
		}
	}

	if *metricsOut != "" {
		report := metricsReport{Config: cfg, Experiments: timings, Metrics: m.Snapshot()}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

}

// servingConfig sizes the serving mode from its flags (zero = default).
func servingConfig(shards, workers, n, q int, seed int64, quick bool) bench.ServingConfig {
	cfg := bench.DefaultServingConfig()
	if quick {
		cfg.N, cfg.OpsPerWorker = 100_000, 20_000
	}
	if shards > 0 {
		cfg.Shards = shards
	}
	if workers > 0 {
		cfg.Workers = workers
	}
	if n > 0 {
		cfg.N = n
	}
	if q > 0 {
		cfg.OpsPerWorker = q
	}
	cfg.Seed = seed
	return cfg
}

// runServing executes the sharded serving benchmark (lixbench -shards N
// -concurrency W) and optionally writes a BENCH_<rev>.json for -compare.
func runServing(shards, workers, n, q int, seed int64, quick bool, rev, outDir string) {
	cfg := servingConfig(shards, workers, n, q, seed, quick)
	tables, rows, err := bench.RunServing(cfg)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	if outDir != "" {
		f := bench.ServingBenchFile(rev, cfg, rows)
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(outDir, "BENCH_"+rev+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// runObsOverhead executes the serving mode's observed-vs-bare pair
// (lixbench -obs-overhead, sized by the serving flags): the obs/95/5/...
// results — the observed one carrying the blocking >= 0.85x bare intra-run
// floor — merge into an existing BENCH_<rev>.json like the batch mode's.
func runObsOverhead(shards, workers, n, q int, seed int64, quick bool, rev, outDir string) {
	tables, results, err := bench.RunObsOverhead(servingConfig(shards, workers, n, q, seed, quick))
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	mergeBenchOut(outDir, rev, results)
}

// runDurable executes the durability benchmark (lixbench -durable
// -fsync=<policy>): per-policy WAL insert throughput and cold-start
// recovery time, optionally written as a BENCH_<rev>.json for -compare.
func runDurable(fsync string, shards, workers, n, q int, seed int64, quick bool, rev, outDir string) {
	cfg := bench.DefaultDurableBenchConfig()
	if quick {
		cfg.N, cfg.Ops = 50_000, 10_000
	}
	if shards > 0 {
		cfg.Shards = shards
	}
	if workers > 0 {
		cfg.Workers = workers
	}
	if n > 0 {
		cfg.N = n
	}
	if q > 0 {
		cfg.Ops = q
	}
	cfg.Seed = seed
	if fsync != "" && fsync != "all" {
		p, err := lix.ParseSyncPolicy(fsync)
		if err != nil {
			fatal(err)
		}
		cfg.Policies = []lix.SyncPolicy{p}
	}

	tables, results, err := bench.RunDurable(cfg)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	if outDir != "" {
		f := bench.BenchFile{Rev: rev, Results: results}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(outDir, "BENCH_"+rev+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// runBatch executes the batched-vs-looped operation benchmark (lixbench
// -batch 16,256,1024). With -bench-out the batch/... results are merged
// into an existing BENCH_<rev>.json (appending to a serving or durable
// run's results) or written fresh, so one CI job can accumulate every
// mode into a single regression file.
func runBatch(sizeSpec string, shards, n, q int, seed int64, quick bool, rev, outDir string) {
	var sizes []int
	for _, part := range strings.Split(sizeSpec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var size int
		if _, err := fmt.Sscanf(part, "%d", &size); err != nil || size <= 0 {
			fatal(fmt.Errorf("-batch wants comma-separated positive sizes, got %q", sizeSpec))
		}
		sizes = append(sizes, size)
	}
	cfg := bench.BatchConfig{Sizes: sizes, Shards: shards, Seed: seed}
	if quick {
		cfg.N, cfg.Ops = 100_000, 20_000
	}
	if n > 0 {
		cfg.N = n
	}
	if q > 0 {
		cfg.Ops = q
	}

	tables, results, err := bench.RunBatch(cfg)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	mergeBenchOut(outDir, rev, results)
}

// runPaged executes the paged-storage benchmark (lixbench -paged):
// random lookups against the disk-backed indexes through a buffer pool
// far smaller than the dataset (cold) and one holding every page (warm).
// With -bench-out the paged/... results — including the blocking
// warm >= 3x cold intra-run floor — merge into an existing
// BENCH_<rev>.json like the batch mode does.
func runPaged(n, q int, seed int64, quick bool, rev, outDir string) {
	cfg := bench.DefaultPagedConfig()
	if quick {
		cfg.N, cfg.Lookups = 60_000, 30_000
	}
	if n > 0 {
		cfg.N = n
	}
	if q > 0 {
		cfg.Lookups = q
	}
	cfg.Seed = seed

	tables, results, err := bench.RunPaged(cfg)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	mergeBenchOut(outDir, rev, results)
}

// runLSM executes the storage-engine benchmark (lixbench -lsm): the same
// write-heavy checkpointing workload under the snapshot and LSM engines,
// plus cold-start recovery and the absent-key filter probe phase. The
// lsm/checkpoint/lsm result carries the blocking LSM >= 2x snapshot
// checkpoint-rate floor. With -bench-out the lsm/... results merge into
// an existing BENCH_<rev>.json like the batch mode does.
func runLSM(n, q int, seed int64, quick bool, rev, outDir string) {
	cfg := bench.DefaultLSMConfig()
	if quick {
		cfg.N, cfg.Writes, cfg.Checkpoints, cfg.Reads = 400_000, 6_000, 6, 30_000
	}
	if n > 0 {
		cfg.N = n
	}
	if q > 0 {
		cfg.Writes = q
	}
	cfg.Seed = seed

	tables, results, err := bench.RunLSM(cfg)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	mergeBenchOut(outDir, rev, results)
}

// runLoadgen executes the wire-protocol load generator (lixbench
// -serve-addr host:port) against a running lixserve: pipelined 95/5
// GET/SET groups over -concurrency connections, open-loop paced under
// -target-qps, per-request latency percentiles read from the client-side
// obs histogram. With -bench-out the serve/... results merge into an
// existing BENCH_<rev>.json like the batch mode does.
func runLoadgen(addr string, pipeline int, qps float64, dur time.Duration,
	conns, keys int, seed int64, quick bool, rev, outDir string) {

	cfg := bench.DefaultLoadgenConfig()
	cfg.Addr = addr
	cfg.Pipeline = pipeline
	cfg.TargetQPS = qps
	cfg.Duration = dur
	cfg.Seed = seed
	if quick {
		cfg.Duration = 2 * time.Second
	}
	if conns > 0 {
		cfg.Conns = conns
	}
	if keys > 0 {
		cfg.Keys = keys
	}

	tables, _, results, err := bench.RunLoadgen(cfg)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	mergeBenchOut(outDir, rev, results)
}

// runTraceOverhead executes the tracing-cost benchmark (lixbench
// -trace-overhead): the wire workload against in-process servers with
// no tracer / disabled sampling / 1% / 100%, emitting informational
// trace/... throughputs plus the gating trace_overhead/off ratio
// (MaxDrop 2%) that pins the disabled-tracing cost. With -bench-out the
// results merge into an existing BENCH_<rev>.json like the batch mode.
func runTraceOverhead(pipeline int, dur time.Duration, conns, shards, n int,
	seed int64, quick bool, rev, outDir string) {

	cfg := bench.DefaultTraceOverheadConfig()
	cfg.Pipeline = pipeline
	cfg.Duration = dur
	cfg.Seed = seed
	if quick {
		cfg.N, cfg.Duration = 100_000, 2*time.Second
	}
	if conns > 0 {
		cfg.Conns = conns
	}
	if shards > 0 {
		cfg.Shards = shards
	}
	if n > 0 {
		cfg.N = n
	}

	tables, results, err := bench.RunTraceOverhead(cfg)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	mergeBenchOut(outDir, rev, results)
}

// mergeBenchOut folds results into <outDir>/BENCH_<rev>.json, replacing
// same-named entries of an existing file (or writing a fresh one), so one
// CI job accumulates every mode into a single regression file. An empty
// outDir writes nothing.
func mergeBenchOut(outDir, rev string, results []bench.BenchResult) {
	if outDir == "" {
		return
	}
	path := filepath.Join(outDir, "BENCH_"+rev+".json")
	f := bench.BenchFile{Rev: rev}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	f.Rev = rev
	f.MergeResults(results)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// compareBenchFiles implements -compare old.json,new.json: print every
// delta and exit non-zero if any throughput regressed past 15%.
func compareBenchFiles(spec string) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fatal(fmt.Errorf("-compare wants 'old.json,new.json', got %q", spec))
	}
	read := func(path string) bench.BenchFile {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		var f bench.BenchFile
		if err := json.Unmarshal(data, &f); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return f
	}
	oldF, newF := read(strings.TrimSpace(parts[0])), read(strings.TrimSpace(parts[1]))
	regs, notes := bench.CompareBenchFiles(oldF, newF, 0.15)
	fmt.Printf("comparing %s (%s) -> %s (%s)\n", parts[0], oldF.Rev, parts[1], newF.Rev)
	for _, n := range notes {
		fmt.Println("  ", n)
	}
	for _, r := range regs {
		fmt.Println("  REGRESSION:", r)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "lixbench: %d result(s) regressed by more than 15%%\n", len(regs))
		os.Exit(1)
	}
	fmt.Println("no regressions past 15%")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lixbench:", err)
	os.Exit(1)
}
