// Command lixbench runs the lix experiment suite (E4–E19 from DESIGN.md),
// printing the result tables recorded in EXPERIMENTS.md, and the
// self-checking ratio gates CI blocks on.
//
// Usage:
//
//	lixbench -e E4            # one experiment at default scale
//	lixbench -e all -n 100000 # whole suite at a custom dataset size
//	lixbench -list            # list experiments
//
// Gates. Each measures both sides of a ratio inside one run, prints its
// table and the ratio against the floor declared next to the measurement
// (internal/bench), and exits 1 if a floor is missed. They run at the fixed
// sizes CI uses; -n, -q and -quick do not apply, -shards and -concurrency
// do where a gate serves a sharded stack from several goroutines.
//
//	lixbench -e serving   # btree+mutex vs sharded-rw vs xindex, 95/5 and 50/50:
//	                      # sharded-rw >= 0.6x mutex; two callers >= 1.1x one
//	lixbench -e batch     # batched (one Apply, + Commit for inserts) vs looped ops
//	                      # at 16, 256, 4096; lookup >= 1x at 16, >= 1.25x from
//	                      # 256; insert >= 0.8x; durable insert >= 2x
//	lixbench -e paged     # paged indexes: warm pool >= 3x cold pool
//	lixbench -e lsm       # checkpoint rate >= 2x a rewrite of the record set
//	lixbench -e trace     # tracer attached but off >= 0.95x no tracer
//	                      # (meant to be 0.98; see traceFloor)
//	lixbench -e obs       # Metrics-attached stack >= 0.85x bare
//	lixbench -e spatial   # rectangle search against the k-d tree: flood >= 3.2x, LISA >= 2.2x,
//	                      # the STR R-tree >= 1.8x, ZM >= 2.3x, the ML-Index >= 1.8x; candidates
//	                      # per result (counted): ZM <= 2.2, the ML-Index <= 3.3
//	lixbench -e wire      # GETs over one loopback connection >= 0.27x gets-only Apply in process;
//	                      # mixed groups over a durable stack >= 0.59x an in-memory one, <= 1 log write per group
//	lixbench -e gates     # all eight
//
// Nothing here compares two revisions: that is the repo benchmark's job
// (benchmark/README.md).
//
// Smoke load against a running lixserve (closed loop, 95/5 GET/SET):
//
//	lixbench -serve-addr 127.0.0.1:7070 -pipeline 32 -concurrency 4 -duration 5s
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
// Profiles are written in runtime/pprof format on every exit path,
// a missed floor included; inspect them with `go tool pprof cpu.out`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status instead of calling
// os.Exit so the deferred profile writers run on every path out.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("lixbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("e", "all", "experiment ID (E4..E19), 'all', or a gate: serving batch paged lsm trace obs spatial wire, 'gates' for all eight")
		n          = fs.Int("n", 0, "dataset size (0 = default)")
		q          = fs.Int("q", 0, "queries per measurement (0 = default)")
		seed       = fs.Int64("seed", 7, "generator seed")
		quick      = fs.Bool("quick", false, "small quick-check scale for the experiments")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		metricsOut = fs.String("metrics", "", "write run metrics JSON to this file")
		cpuOut     = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memOut     = fs.String("memprofile", "", "write a pprof heap profile to this file")

		shards      = fs.Int("shards", 0, "gates: shard count of the sharded stacks (0 = the gate's own)")
		concurrency = fs.Int("concurrency", 0, "gates: worker goroutines; loadgen: connections (0 = default)")

		serveAddr = fs.String("serve-addr", "", "loadgen mode: drive a running lixserve at this address")
		pipeline  = fs.Int("pipeline", 32, "loadgen mode: requests per pipelined group")
		duration  = fs.Duration("duration", 5*time.Second, "loadgen mode: send window")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(bench.IDs(), " "))
		return 0
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lixbench:", err)
		return 1
	}

	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memOut != "" {
		defer func() {
			if err := writeHeapProfile(*memOut); err != nil && status == 0 {
				status = fail(err)
			}
		}()
	}

	if *serveAddr != "" {
		tables, err := bench.RunLoadgen(*serveAddr, bench.Config{
			N: *n, Seed: *seed, Workers: *concurrency, Pipeline: *pipeline, Duration: *duration,
		})
		if err != nil {
			return fail(err)
		}
		render(stdout, tables)
		return 0
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
	cfg.Shards, cfg.Workers = *shards, *concurrency

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
		// A gate that misses a floor returns its tables with the error.
		tables, err := bench.Run(id, cfg)
		render(stdout, tables)
		if err != nil {
			return fail(err)
		}
		timings = append(timings, experimentTiming{ID: id, Seconds: time.Since(start).Seconds()})
	}

	if *metricsOut != "" {
		report := metricsReport{Config: cfg, Experiments: timings, Metrics: m.Snapshot()}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	return 0
}

func render(w io.Writer, tables []*bench.Table) {
	for _, t := range tables {
		t.Render(w)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize live-heap stats
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	return f.Close()
}
