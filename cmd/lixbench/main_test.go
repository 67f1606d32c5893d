package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlushesProfilesOnFailure pins the exit path a missed floor takes:
// run returns non-zero through its deferred profile writers, so the CPU and
// heap profiles CI uploads to explain a failure are on disk and non-empty.
// (main used to os.Exit from the failure site and lose both.)
func TestRunFlushesProfilesOnFailure(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	status := run([]string{"-e", "no-such-gate", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if status == 0 {
		t.Fatalf("unknown -e exited 0; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), `lixbench: bench: unknown experiment or gate "no-such-gate"`) {
		t.Errorf("stderr = %q, want the unknown-id error", stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, size %v; want a non-empty profile", filepath.Base(path), err, st)
		}
	}
}

// TestMetricsDocumentShape pins the -metrics document of an experiment
// run: the config object carries N, Q and Seed and none of the gate or
// loadgen fields.
func TestMetricsDocumentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E9 at quick scale")
	}
	out := filepath.Join(t.TempDir(), "metrics.json")
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-e", "E9", "-quick", "-metrics", out}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "E9 — ") {
		t.Errorf("stdout starts %.40q, want the E9 table", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Config      map[string]any   `json:"config"`
		Experiments []map[string]any `json:"experiments"`
		Metrics     map[string]any   `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Config) != 3 || doc.Config["N"] != 20000.0 || doc.Config["Q"] != 4000.0 || doc.Config["Seed"] != 7.0 {
		t.Errorf("config = %v, want exactly N=20000 Q=4000 Seed=7", doc.Config)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0]["id"] != "E9" || doc.Metrics == nil {
		t.Errorf("experiments = %v, metrics present = %v", doc.Experiments, doc.Metrics != nil)
	}
}
