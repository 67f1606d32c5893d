package bench

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"github.com/lix-go/lix/internal/dataset"
)

// TestShardedScaling is the multicore scaling smoke test: sharded-rw(8)
// must beat the single btree+mutex baseline on a 50/50 mixed workload at
// 8 workers by a configurable factor. The sharding design only pays off
// when workers actually run in parallel, so the test is skipped with
// -short and on hosts with fewer than 4 CPUs (where the two systems
// rightly converge and any ratio is noise, not signal).
//
// The factor defaults to 3 — the tentpole target — and is overridable
// through LIX_SCALING_MIN_RATIO so CI runners with fewer or noisier
// cores can gate on a trend-preserving floor instead of flaking.
func TestShardedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling needs sustained multicore runs; skipped with -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	minRatio := 3.0
	if env := os.Getenv("LIX_SCALING_MIN_RATIO"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil || v <= 0 {
			t.Fatalf("LIX_SCALING_MIN_RATIO=%q: want a positive number", env)
		}
		minRatio = v
	}

	cfg := Config{N: 200_000, Q: 100_000, Workers: 8, Shards: 8, Seed: 1}
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	systems := servingSystems(cfg)

	// systems[0] is btree+mutex, systems[1] is sharded-rw; measure each
	// three times on a fresh instance and keep the best, so one unlucky
	// scheduling window cannot fail the gate.
	measure := func(sys servingSystem) float64 {
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			get, put, err := sys.build(recs)
			if err != nil {
				t.Fatalf("build %s: %v", sys.name, err)
			}
			if mops := runMixed(keys, cfg, 0.50, get, put); mops > best {
				best = mops
			}
		}
		return best
	}
	baseline := measure(systems[0])
	sharded := measure(systems[1])

	ratio := sharded / baseline
	t.Logf("50/50 @ %d workers: %s %.2f Mops/s, %s %.2f Mops/s, ratio %.2f (floor %.2f)",
		cfg.Workers, systems[0].name, baseline, systems[1].name, sharded, ratio, minRatio)
	if ratio < minRatio {
		t.Errorf("%s is %.2fx %s at %d workers, want >= %.2fx",
			systems[1].name, ratio, systems[0].name, cfg.Workers, minRatio)
	}
}
