package bench

import (
	"strings"
	"testing"
)

// TestRunServingSmoke runs the serving benchmark at toy scale: every
// system must produce a positive throughput for both workloads.
func TestRunServingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serving smoke benchmark skipped in -short mode")
	}
	cfg := ServingConfig{N: 2000, OpsPerWorker: 500, Workers: 2, Shards: 4, Seed: 3}
	tables, rows, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(tables))
	}
	if want := 4 * 2; len(rows) != want { // 4 systems x 2 workloads
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Mops <= 0 {
			t.Fatalf("%s/%s: Mops = %v, want > 0", r.System, r.Workload, r.Mops)
		}
	}
	f := ServingBenchFile("test", cfg, rows)
	if len(f.Results) != len(rows) {
		t.Fatalf("bench file results = %d, want %d", len(f.Results), len(rows))
	}
}

func TestCompareBenchFiles(t *testing.T) {
	old := BenchFile{Rev: "a", Results: []BenchResult{
		{Name: "serving/95/x", OpsPerSec: 100},
		{Name: "serving/95/y", OpsPerSec: 100},
		{Name: "serving/95/gone", OpsPerSec: 50},
		{Name: "serving/95/zero", OpsPerSec: 0},
	}}
	cur := BenchFile{Rev: "b", Results: []BenchResult{
		{Name: "serving/95/x", OpsPerSec: 80},   // -20%: regression at 15%
		{Name: "serving/95/y", OpsPerSec: 90},   // -10%: within threshold
		{Name: "serving/95/new", OpsPerSec: 10}, // no baseline
		{Name: "serving/95/zero", OpsPerSec: 10},
	}}
	regs, notes := CompareBenchFiles(old, cur, 0.15)
	if len(regs) != 1 || !strings.Contains(regs[0], "serving/95/x") {
		t.Fatalf("regressions = %v, want exactly serving/95/x", regs)
	}
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"serving/95/y", "no baseline", "missing from new run", "baseline is zero"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("notes missing %q:\n%s", want, joined)
		}
	}
	// At a looser threshold the -20% drop is acceptable.
	regs, _ = CompareBenchFiles(old, cur, 0.25)
	if len(regs) != 0 {
		t.Fatalf("regressions at 25%% threshold = %v, want none", regs)
	}
}

// TestCompareThresholdBoundary pins the gate arithmetic the now-blocking
// CI job relies on: the comparison is strict (change < -threshold), so a
// drop landing exactly on the threshold is tolerated, anything past it
// fails, and improvements never trip it. The boundary case uses a
// binary-exact threshold (0.25) so it pins semantics, not float rounding.
func TestCompareThresholdBoundary(t *testing.T) {
	base := BenchFile{Rev: "a", Results: []BenchResult{{Name: "x", OpsPerSec: 1024}}}
	cases := []struct {
		newOps float64
		reg    bool
	}{
		{768, false}, // exactly -25%: change == -threshold, not < — passes
		{769, false},
		{767, true}, // one tick past the line
		{512, true},
		{1024, false},
		{2048, false}, // improvement
	}
	for _, c := range cases {
		cur := BenchFile{Rev: "b", Results: []BenchResult{{Name: "x", OpsPerSec: c.newOps}}}
		regs, _ := CompareBenchFiles(base, cur, 0.25)
		if got := len(regs) > 0; got != c.reg {
			t.Errorf("1024 -> %g ops/s: regression=%v, want %v (%v)", c.newOps, got, c.reg, regs)
		}
	}
}

// TestMergeResultsReplacesByName pins the bench-file merge semantics a
// repeated lixbench mode relies on: same-named results are replaced in
// place (latest run wins, constraints included), new names append, and
// no duplicates survive — CompareBenchFiles resolves names by map, so a
// duplicate would pair old-vs-new and ratio references arbitrarily.
func TestMergeResultsReplacesByName(t *testing.T) {
	f := BenchFile{Results: []BenchResult{
		{Name: "a", OpsPerSec: 1},
		{Name: "b", OpsPerSec: 2},
	}}
	f.MergeResults([]BenchResult{
		{Name: "b", OpsPerSec: 20, MinRatioOf: "a", MinRatio: 0.5},
		{Name: "c", OpsPerSec: 3},
	})
	if len(f.Results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(f.Results), f.Results)
	}
	if r := f.Results[1]; r.Name != "b" || r.OpsPerSec != 20 || r.MinRatioOf != "a" {
		t.Fatalf("replaced entry = %+v, want updated b in place", r)
	}
	if r := f.Results[2]; r.Name != "c" || r.OpsPerSec != 3 {
		t.Fatalf("appended entry = %+v, want c", r)
	}
}

// TestCompareRatioGate pins the blocking intra-run ratio constraint: a
// result declaring MinRatioOf/MinRatio fails the comparison whenever the
// new run measures it below the floor times its sibling — even when it
// improved against the baseline — and passes at or above the floor.
func TestCompareRatioGate(t *testing.T) {
	gated := func(batched, looped, floor float64) BenchFile {
		return BenchFile{Rev: "b", Results: []BenchResult{
			{Name: "batch/s/lookup/looped", OpsPerSec: looped},
			{Name: "batch/s/lookup/b16", OpsPerSec: batched,
				MinRatioOf: "batch/s/lookup/looped", MinRatio: floor},
		}}
	}
	old := gated(100, 100, 0.9)

	cases := []struct {
		name    string
		batched float64
		reg     bool
	}{
		{"above floor", 95, false},
		{"exactly at floor", 90, false},
		{"below floor", 89, true},
		{"well below floor", 42, true},
	}
	for _, c := range cases {
		regs, _ := CompareBenchFiles(old, gated(c.batched, 100, 0.9), 0.5)
		if got := len(regs) > 0; got != c.reg {
			t.Errorf("%s (%g vs 100): regression=%v, want %v (%v)", c.name, c.batched, got, c.reg, regs)
		}
	}

	// Improvement over baseline does not excuse a floor violation: the
	// batched side doubles its own history but still trails looped.
	regs, _ := CompareBenchFiles(old, gated(200, 300, 0.9), 0.5)
	if len(regs) != 1 || !strings.Contains(regs[0], "floor") {
		t.Fatalf("floor violation with improved absolute throughput: regs = %v", regs)
	}

	// A dangling reference is itself a blocking failure, not a silent skip.
	dangling := BenchFile{Rev: "b", Results: []BenchResult{
		{Name: "batch/s/lookup/b16", OpsPerSec: 100,
			MinRatioOf: "batch/s/lookup/looped", MinRatio: 0.9},
	}}
	regs, _ = CompareBenchFiles(BenchFile{}, dangling, 0.5)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing from new run") {
		t.Fatalf("dangling ratio reference: regs = %v", regs)
	}

	// A baseline-side constraint still binds when the new run omits it.
	oldOnly := BenchFile{Rev: "a", Results: []BenchResult{
		{Name: "batch/s/lookup/looped", OpsPerSec: 100},
		{Name: "batch/s/lookup/b16", OpsPerSec: 100,
			MinRatioOf: "batch/s/lookup/looped", MinRatio: 0.9},
	}}
	shed := BenchFile{Rev: "b", Results: []BenchResult{
		{Name: "batch/s/lookup/looped", OpsPerSec: 100},
		{Name: "batch/s/lookup/b16", OpsPerSec: 50},
	}}
	regs, _ = CompareBenchFiles(oldOnly, shed, 0.9)
	if len(regs) != 1 || !strings.Contains(regs[0], "floor") {
		t.Fatalf("inherited baseline constraint: regs = %v", regs)
	}
}

// TestRunObsOverheadSmoke runs the observed-vs-bare pair at toy scale:
// both sides must produce throughput, the observed result must carry the
// blocking 0.85 floor against the bare one, and the run's own check that
// the wrapper counted every operation must pass. The ratio itself is not
// asserted — short passes are noisy; CI's bench job gates it via -compare
// at real scale.
func TestRunObsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("obs overhead smoke skipped in -short mode")
	}
	tables, results, err := RunObsOverhead(ServingConfig{N: 2000, OpsPerWorker: 500, Workers: 2, Shards: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(results) != 2 {
		t.Fatalf("tables = %d, results = %d, want 1 and 2", len(tables), len(results))
	}
	bare, observed := results[0], results[1]
	if bare.Name != ObsOverheadBare || bare.OpsPerSec <= 0 || bare.MinRatioOf != "" {
		t.Errorf("bare result = %+v", bare)
	}
	if observed.Name != ObsOverheadObserved || observed.OpsPerSec <= 0 ||
		observed.MinRatioOf != ObsOverheadBare || observed.MinRatio != 0.85 {
		t.Errorf("observed result = %+v, want a 0.85 floor against %s", observed, ObsOverheadBare)
	}
}
