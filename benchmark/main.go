// Command benchmark is the repository's one benchmark: four workloads, the
// end-to-end metrics a user of lix would see, and a per-layer breakdown
// measured from outside the program. See README.md.
//
//	go run ./benchmark -seed 1                      every workload, both runs
//	go run ./benchmark -workload wire-read -trace 0 one workload, end-to-end metrics
//	go run ./benchmark -workload wire-read -trace 1 one workload, per-layer metrics
//	go run ./benchmark -repeat 2                    two sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := childMain(spec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

var workloadNames = []string{"wire-read", "wire-durable", "inproc-mixed", spatialName}

func runWorkload(name string, opt options, traced bool) (*result, error) {
	if name == spatialName {
		return runSpatial(opt, traced)
	}
	w := findKV(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return runKV(w, opt, traced)
}

// run is main without the exit, so the smoke test can call it.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload (default: all four, end-to-end and traced)")
		seed     = fs.Uint64("seed", 1, "the only source of randomness")
		seconds  = fs.Float64("seconds", 20, "length of a workload's measurement window")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		scale    = fs.Int("scale", 1, "divide every data size by this (the smoke test uses 200)")
		outDir   = fs.String("out", "benchmark/out", "directory for trace files and temporary data")
		repeat   = fs.Int("repeat", 1, "without -workload: run this many sets and compare them against the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale < 1 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -scale, -seconds and -repeat must be positive and -trace 0 or 1")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	// A signal must not leave a server child behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		if _, ok := <-sig; ok {
			killAllChildren()
			os.Exit(1)
		}
	}()
	defer killAllChildren()

	start := time.Now()
	fmt.Fprintf(out, "env nproc=%d GOMAXPROCS=%d go=%s seed=%d seconds=%g scale=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), opt.seed, opt.seconds, opt.scale)

	if *workload != "" {
		res, err := runWorkload(*workload, opt, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(out, "env wall_s=%.1f\n", time.Since(start).Seconds())
		res.print(out)
		return 0
	}

	code := 0
	sets := make([]map[string]float64, *repeat) // "workload metric" -> value
	for i := range sets {
		sets[i] = map[string]float64{}
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(name, opt, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				res.print(out)
				if res.wrong > 0 || res.invalids > 0 {
					code = 1
				}
				if !traced {
					for k, v := range res.values {
						sets[i][name+" "+k] = v
					}
				}
			}
		}
	}
	if *repeat > 1 && !compareSets(sets, out) {
		code = 1
	}
	fmt.Fprintf(out, "env wall_s=%.1f\n", time.Since(start).Seconds())
	return code
}

// compareSets prints, per end-to-end metric and workload, the first and last
// set's values, their relative gap and the bound from BENCHMARK.json, and
// reports whether every gap is within its bound.
func compareSets(sets []map[string]float64, out io.Writer) bool {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat needs BENCHMARK.json in the working directory:", err)
		return false
	}
	var bm struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return false
	}
	ok := true
	a, b := sets[0], sets[len(sets)-1]
	for _, name := range workloadNames {
		for _, m := range bm.EndToEnd {
			va, vb := a[name+" "+m.Name], b[name+" "+m.Name]
			gap := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if !(gap <= m.Bound) {
				verdict, ok = "ABOVE BOUND", false
			}
			fmt.Fprintf(out, "repeat %s %s %.6g %.6g gap=%.4f bound=%.2f %s\n", name, m.Name, va, vb, gap, m.Bound, verdict)
		}
	}
	return ok
}
