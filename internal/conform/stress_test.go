package conform

import (
	"strings"
	"sync"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

func stressCfg(t *testing.T, seed int64) StressConfig {
	cfg := DefaultStressConfig()
	cfg.Seed = seed
	if testing.Short() {
		// The race detector multiplies per-op cost ~10x; shrink the
		// schedule, not the concurrency.
		cfg.KeysPerWriter = 64
		cfg.OpsPerWriter = 120
	}
	return cfg
}

// TestShardedStress runs the concurrent differential stress tier against
// the sharded serving layer over two backends, with shard counts small
// enough that every run crosses shard boundaries.
func TestShardedStress(t *testing.T) {
	cases := []struct {
		name string
		cfg  lix.StackConfig
	}{
		{"rw-btree", lix.StackConfig{Shards: 4}},
		{"rw-skiplist", lix.StackConfig{Shards: 3, Kind: "skiplist"}},
	}
	for i, c := range cases {
		c, i := c, i
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			err := CheckStress(func(init []core.KV) (MutableIndex, error) {
				return lix.NewStack(init, c.cfg)
			}, stressCfg(t, int64(i+1)))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestXIndexStress runs the same tier against XIndex, whose fine-grained
// concurrency predates the sharding layer.
func TestXIndexStress(t *testing.T) {
	err := CheckStress(func(init []core.KV) (MutableIndex, error) {
		ix := lix.NewXIndex(256, 32)
		for _, r := range init {
			ix.Insert(r.Key, r.Value)
		}
		return ix, nil
	}, stressCfg(t, 42))
	if err != nil {
		t.Fatal(err)
	}
}

// lossyIndex is a deliberately buggy concurrent index: a mutex-guarded
// B+-tree that silently drops every 17th insert. It exists to prove the
// stress tier detects lost updates and shrinks the failing history.
type lossyIndex struct {
	mu sync.Mutex
	ix lix.MutableIndex
	n  int
}

func (l *lossyIndex) Get(k core.Key) (core.Value, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Get(k)
}

func (l *lossyIndex) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Range(lo, hi, fn)
}

func (l *lossyIndex) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Len()
}

func (l *lossyIndex) Stats() core.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Stats()
}

func (l *lossyIndex) Insert(k core.Key, v core.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if l.n%17 == 0 {
		return // lost update
	}
	l.ix.Insert(k, v)
}

func (l *lossyIndex) Delete(k core.Key) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Delete(k)
}

// TestStressDetectsLostUpdates pins that the tier catches a buggy index
// and that the reported history is smaller than the generated one.
func TestStressDetectsLostUpdates(t *testing.T) {
	cfg := DefaultStressConfig()
	cfg.Seed = 5
	cfg.Batch = false
	cfg.KeysPerWriter = 32
	cfg.OpsPerWriter = 120
	err := CheckStress(func(init []core.KV) (MutableIndex, error) {
		l := &lossyIndex{ix: lix.NewBTree(0)}
		for _, r := range init {
			l.ix.Insert(r.Key, r.Value) // preload without counting drops
		}
		return l, nil
	}, cfg)
	if err == nil {
		t.Fatal("stress tier missed a lossy index")
	}
	sf, ok := err.(*StressFailure)
	if !ok {
		t.Fatalf("error type %T, want *StressFailure", err)
	}
	if full := cfg.Writers * cfg.OpsPerWriter; sf.History.ops() >= full {
		t.Fatalf("history not shrunk: %d ops of %d", sf.History.ops(), full)
	}
	if !strings.Contains(err.Error(), "minimized history") {
		t.Fatalf("failure lacks minimized history: %v", err)
	}
}

// TestStressConfigValidation pins that a zero-valued configuration is
// rejected instead of vacuously passing.
func TestStressConfigValidation(t *testing.T) {
	err := CheckStress(func(init []core.KV) (MutableIndex, error) {
		return lix.NewBTree(0), nil
	}, StressConfig{})
	if err == nil {
		t.Fatal("zero config accepted")
	}
}
