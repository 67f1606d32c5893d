package conform

import (
	"os"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// TestShardModeSelectsNothing is the contract that keeps lix.ShardMode,
// ShardRW, ShardRCU and StackConfig.Mode/Snapshot declared after the
// second shard design was deleted: the frozen repo benchmark
// (benchmark/ladder.go, shardModes) builds a stack with the literal
// configuration below. It must build, replay a 1-D workload against the
// oracle without a divergence, and be the same stack Mode: ShardRW
// builds — in memory, where the name is the one every table and golden
// holds, and with Dir set, which the deleted mode refused.
func TestShardModeSelectsNothing(t *testing.T) {
	frozen := lix.StackConfig{Kind: "alex", Shards: 4, Mode: lix.ShardRCU, Snapshot: "pgm"}
	rw := lix.StackConfig{Kind: "alex", Shards: 4, Mode: lix.ShardRW}

	nInit, nOps := diffSizes1D(t)
	w, err := NewWorkload1D(dataset.Lognormal, nInit, nOps, true, 0x23)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	for _, c := range []struct {
		name, stats string
		durable     bool
	}{
		{"memory", "sharded-rw(4)", false},
		{"dir", "durable(sharded-rw(4))", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(cfg lix.StackConfig) func([]core.KV) (Index, error) {
				return func(recs []core.KV) (Index, error) {
					if c.durable {
						// A fresh directory per build: shrinking rebuilds.
						dir, err := os.MkdirTemp(t.TempDir(), "stack-*")
						if err != nil {
							return nil, err
						}
						cfg.Dir, cfg.Fsync = dir, lix.FsyncNever
						if recs == nil {
							recs = []core.KV{} // nil asks NewStack to recover Dir
						}
					}
					return lix.NewStack(recs, cfg)
				}
			}
			for _, cfg := range []lix.StackConfig{frozen, rw} {
				ix, err := build(cfg)(w.Init)
				if err != nil {
					t.Fatalf("Mode %d: %v", cfg.Mode, err)
				}
				if got := ix.Stats().Name; got != c.stats {
					t.Errorf("Mode %d: Stats().Name = %q, want %q", cfg.Mode, got, c.stats)
				}
				closeIndex(ix)
			}
			f := Factory{
				Name:    "stack-frozen-config/" + c.name,
				Caps:    Caps{Mutable: true, AllowsEmpty: true},
				Build1D: build(frozen),
			}
			if d := Run1D(f, w, 0); d != nil {
				t.Fatalf("%s", d)
			}
		})
	}
}
