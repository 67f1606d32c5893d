package conform

import (
	"fmt"
	"os"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// This file folds the durable storage layer into the conformance
// machinery: the persistence path registers ordinary differential
// factories (so every workload shape and the stress tier replay through
// the WAL), and CheckReopen adds the durability-specific property the
// in-memory suite cannot express — close, reopen from disk, and the
// recovered index must equal the oracle.

// durableIndex wraps a durable stack built in a scratch directory; Close
// tears the store down and removes its files, which the replay engine
// invokes through the io.Closer hook after every build.
type durableIndex struct {
	*lix.Stack
	dir string
}

func (d durableIndex) Close() error {
	err := d.Stack.Close()
	os.RemoveAll(d.dir)
	return err
}

// durableStack builds the durable stack at dir: created with recs when
// they are non-nil, opened otherwise. The settings are the conformance
// suite's: no per-op fsync (the suite checks logical equivalence, not
// power-loss durability, and replays thousands of ops per workload) and a
// checkpoint interval small enough that replays cross generation
// rotations.
func durableStack(dir string, recs []core.KV, shards, checkpointEvery int) (*lix.Stack, error) {
	return lix.NewStack(recs, lix.StackConfig{
		Dir:             dir,
		Shards:          shards,
		Fsync:           lix.FsyncNever,
		CheckpointEvery: checkpointEvery,
	})
}

// durableConfigs are the durable configurations under conformance: the
// store unsharded and with one write segment per shard, each at two flush
// cadences. At 2000 records a replay crosses a rotation or two; at 300
// (the "-lsm" names, which once selected a second engine) it stacks enough
// runs that compaction and tombstone dropping run under the check too.
var durableConfigs = []struct {
	name                    string
	shards, checkpointEvery int
}{
	{"durable-btree", 0, 2000},
	{"durable-sharded", 4, 2000},
	{"durable-lsm", 0, 300},
	{"durable-lsm-sharded", 4, 300},
}

func init() {
	for _, c := range durableConfigs {
		Register(Factory{
			Name: c.name,
			Caps: Caps{Mutable: true, AllowsEmpty: true},
			Build1D: func(recs []core.KV) (Index, error) {
				dir, err := os.MkdirTemp("", "lix-conform-"+c.name+"-*")
				if err != nil {
					return nil, err
				}
				st, err := durableStack(dir, recs, c.shards, c.checkpointEvery)
				if err != nil {
					os.RemoveAll(dir)
					return nil, err
				}
				return durableIndex{Stack: st, dir: dir}, nil
			},
		})
	}
}

// DurableFactory builds and reopens a durable stack for CheckReopen.
type DurableFactory struct {
	Name string
	// Create initializes a fresh store at dir seeded with init.
	Create func(dir string, init []core.KV) (*lix.Stack, error)
	// Reopen opens the store at dir after a clean Close.
	Reopen func(dir string) (*lix.Stack, error)
}

// DurableFactories lists the reopen-checked configurations, mirroring
// the registered differential factories.
func DurableFactories() []DurableFactory {
	var out []DurableFactory
	for _, c := range durableConfigs {
		out = append(out, DurableFactory{
			Name: c.name,
			Create: func(dir string, init []core.KV) (*lix.Stack, error) {
				return durableStack(dir, init, c.shards, c.checkpointEvery)
			},
			Reopen: func(dir string) (*lix.Stack, error) {
				// A bare reconfiguration-free open: kind and shard count
				// must come back from the persisted state.
				return durableStack(dir, nil, 0, c.checkpointEvery)
			},
		})
	}
	return out
}

// CheckReopen is the reopen-after-quiesce equivalence check: it replays
// w's mutations against a fresh store and the sorted-slice oracle,
// closes the store cleanly, reopens it from disk, and verifies the
// recovered index matches the oracle on Len, every oracle key, probes
// around the key space, and a full ascending Range. nil means the
// persisted state is equivalent.
func CheckReopen(f DurableFactory, w Workload1D, dir string) error {
	st, err := f.Create(dir, w.Init)
	if err != nil {
		return fmt.Errorf("conform: %s create: %v", f.Name, err)
	}
	d := st.Durable()
	o := newOracle1D(w.Init)
	for i, op := range w.Ops {
		switch op.Kind {
		case OpInsert:
			if err := d.Put(op.Key, op.Val); err != nil {
				st.Close()
				return fmt.Errorf("conform: %s op %d %s: %v", f.Name, i, op, err)
			}
			o.Insert(op.Key, op.Val)
		case OpDelete:
			got, err := d.Del(op.Key)
			if err != nil {
				st.Close()
				return fmt.Errorf("conform: %s op %d %s: %v", f.Name, i, op, err)
			}
			if want := o.Delete(op.Key); got != want {
				st.Close()
				return fmt.Errorf("conform: %s op %d %s = %v, oracle %v", f.Name, i, op, got, want)
			}
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("conform: %s close: %v", f.Name, err)
	}

	r, err := f.Reopen(dir)
	if err != nil {
		return fmt.Errorf("conform: %s reopen: %v", f.Name, err)
	}
	defer r.Close()
	if got, want := r.Len(), o.Len(); got != want {
		return fmt.Errorf("conform: %s reopened Len() = %d, oracle %d", f.Name, got, want)
	}
	// Every oracle record must come back; probes one past each key catch
	// phantom records on the miss path.
	missErr := error(nil)
	o.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		if gv, ok := r.Get(k); !ok || gv != v {
			missErr = fmt.Errorf("conform: %s reopened Get(%d) = (%d, %v), oracle (%d, true)", f.Name, k, gv, ok, v)
			return false
		}
		if gv, ok := r.Get(k + 1); ok {
			if wv, wok := o.Get(k + 1); !wok || wv != gv {
				missErr = fmt.Errorf("conform: %s reopened Get(%d) phantom (%d)", f.Name, k+1, gv)
				return false
			}
		}
		return true
	})
	if missErr != nil {
		return missErr
	}
	// Full scans must agree record-for-record, in order.
	var got, want []core.KV
	r.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		got = append(got, core.KV{Key: k, Value: v})
		return true
	})
	o.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		want = append(want, core.KV{Key: k, Value: v})
		return true
	})
	if len(got) != len(want) {
		return fmt.Errorf("conform: %s reopened Range yielded %d records, oracle %d", f.Name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("conform: %s reopened Range record %d = %v, oracle %v", f.Name, i, got[i], want[i])
		}
	}
	return nil
}
