package conform

import (
	"os"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// TestDurableReopenEquivalence replays every workload shape against each
// durable configuration, closes, reopens from disk, and requires the
// recovered index to match the oracle exactly.
func TestDurableReopenEquivalence(t *testing.T) {
	nInit, nOps := 1500, 2500
	if testing.Short() {
		nInit, nOps = 400, 600
	}
	for _, f := range DurableFactories() {
		for _, kind := range Shapes1D() {
			f, kind := f, kind
			t.Run(f.Name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				w, err := NewWorkload1D(kind, nInit, nOps, true, 0xd0e+int64(len(f.Name)))
				if err != nil {
					t.Fatalf("workload: %v", err)
				}
				if err := CheckReopen(f, w, t.TempDir()); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDurableStress runs the concurrent differential stress tier through
// the persistence path: every mutation traverses the WAL before the
// in-memory index, under concurrent readers, and the quiesced state must
// match the sequential oracle.
func TestDurableStress(t *testing.T) {
	for i, c := range durableConfigs {
		c, i := c, i
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			// Each build (shrinking reruns several) gets a fresh directory;
			// the engine's io.Closer hook removes it again.
			err := CheckStress(func(init []core.KV) (MutableIndex, error) {
				dir, err := os.MkdirTemp(t.TempDir(), "stress-*")
				if err != nil {
					return nil, err
				}
				st, err := durableStack(dir, init, c.shards, c.checkpointEvery)
				if err != nil {
					return nil, err
				}
				return durableIndex{Stack: st, dir: dir}, nil
			}, stressCfg(t, int64(i+77)))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableFactoriesRegistered pins the persistence path into the
// differential registry alongside the in-memory factories.
func TestDurableFactoriesRegistered(t *testing.T) {
	for _, c := range durableConfigs {
		f, err := Lookup(c.name)
		if err != nil {
			t.Fatalf("factory %q not registered: %v", c.name, err)
		}
		if !f.Caps.Mutable || !f.Caps.AllowsEmpty {
			t.Fatalf("factory %q caps %+v", c.name, f.Caps)
		}
	}
}
