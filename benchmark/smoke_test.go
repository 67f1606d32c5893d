package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary play the child server, exactly as main does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := childMain(spec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// metricName is one metric entry of ../BENCHMARK.json.
type metricName struct{ Name, Unit string }

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricName            `json:"end_to_end"`
	PerLayer  []metricName            `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// lastLine is the JSON object a run prints last.
type lastLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

const smokeScale = "200"

// smokeRun runs one workload at 1/200 scale, fails the test on a wrong answer
// or a stray child, and returns the output lines and the parsed last line.
func smokeRun(t *testing.T, workload string, seed, trace int, outDir string) ([]string, lastLine) {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "0.4",
		"--trace", fmt.Sprint(trace), "-scale", smokeScale, "-out", outDir,
	}, &out)
	if code != 0 {
		t.Fatalf("%s trace=%d: exit code %d\n%s", workload, trace, code, out.String())
	}
	if len(live) != 0 {
		t.Fatalf("%s: %d child processes not reaped", workload, len(live))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("%s trace=%d seed=%d: correct=%v attempted=%d failed=%d (fail_frac must be 0)\n%s",
			workload, trace, seed, last.Correct, last.Attempted, last.Failed, out.String())
	}
	return lines, last
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload, end to end and traced, and checks the output
// against BENCHMARK.json: each named metric printed exactly once with its
// unit, every answer right, and a well-formed trace file per workload.
func TestSmoke(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloadNames))
	}
	outDir := t.TempDir()
	for _, w := range bm.Workloads {
		for trace, want := range [][]metricName{bm.EndToEnd, bm.PerLayer} {
			lines, last := smokeRun(t, w.Name, 1, trace, outDir)
			seen := map[string]int{}
			for _, l := range lines {
				f := strings.Fields(l)
				if len(f) >= 5 && f[0] == "metric" {
					if f[1] != w.Name || !nameRE.MatchString(f[2]) {
						t.Errorf("bad metric line %q", l)
					}
					seen[f[2]+" "+f[4]]++
				}
			}
			for _, m := range want {
				if seen[m.Name+" "+m.Unit] != 1 {
					t.Errorf("%s trace=%d: metric %s [%s] printed %d times, want once", w.Name, trace, m.Name, m.Unit, seen[m.Name+" "+m.Unit])
				}
			}
			if len(seen) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(seen), len(want))
			}

			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%d: last line has %d metrics, want %d", w.Name, trace, len(last.Metrics), len(want))
			}
			if trace == 0 {
				for name, m := range last.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
		checkTraceFile(t, filepath.Join(outDir, "trace-"+w.Name+".json"))
	}
	if left, _ := filepath.Glob(filepath.Join(outDir, "data-*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ Spans []span }
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	ids := map[int]bool{}
	for _, s := range tf.Spans {
		ids[s.ID] = true
	}
	for _, s := range tf.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) has unknown parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.Name == "" || s.End < s.Start {
			t.Errorf("%s: malformed span %+v", path, s)
		}
	}
}

// TestDeterminism pins that one seed gives byte-identical inputs twice, that
// another seed gives different ones, and that a seed never used while the
// benchmark was tuned runs clean.
func TestDeterminism(t *testing.T) {
	sha := func(seed uint64) string {
		var all []string
		for i := range kvWorkloads {
			w := &kvWorkloads[i]
			ks := newKeyspace(w, seed, 200)
			var streams [][]op
			for id := 0; id < workers; id++ {
				streams = append(streams, genStream(w, ks, id, seed, 200))
			}
			all = append(all, streamSHA(streams))
		}
		return strings.Join(append(all, genSpatial(seed, 200).sha()), " ")
	}
	if a, b := sha(7), sha(7); a != b {
		t.Errorf("seed 7 gave two different inputs:\n%s\n%s", a, b)
	}
	if sha(7) == sha(8) {
		t.Error("seeds 7 and 8 gave the same inputs")
	}
	outDir := t.TempDir()
	for _, name := range workloadNames {
		smokeRun(t, name, 977_141, 0, outDir)
	}
}

// TestChildReapedOnFailure makes the durable server fail to start and checks
// that the run fails without leaving a process behind.
func TestChildReapedOnFailure(t *testing.T) {
	outDir := t.TempDir()
	// The first data directory of this process is this path; a regular file
	// there makes the child's NewStack fail.
	blocker := filepath.Join(outDir, fmt.Sprintf("data-wire-durable-%d-1", os.Getpid()))
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{"-workload", "wire-durable", "-seconds", "0.2", "-scale", smokeScale, "-out", outDir}, &out)
	if code == 0 {
		t.Fatalf("run succeeded over a blocked data directory:\n%s", out.String())
	}
	if len(live) != 0 {
		t.Fatalf("%d child processes not reaped after a failed run", len(live))
	}
}
