package conform

import (
	"fmt"
	"sync"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// TestObserveTransparency1D re-runs the differential suite for every
// registered 1-D factory with its product wrapped by the public
// observability layer (lix.Observe / lix.ObserveMutable), each instance
// with its own metrics bundle. The unwrapped factories already pass
// TestDifferential1D, so any failure here isolates a behavior change
// introduced by the wrapper: results, invariant checks and oracle agreement
// must be indistinguishable from the bare index.
func TestObserveTransparency1D(t *testing.T) {
	for _, f := range Factories1D() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			wf := f
			wf.Build1D = func(recs []core.KV) (Index, error) {
				ix, err := f.Build1D(recs)
				if err != nil {
					return nil, err
				}
				m := lix.NewMetrics("conform-" + f.Name)
				if f.Caps.Mutable {
					mi, ok := ix.(MutableIndex)
					if !ok {
						return nil, fmt.Errorf("factory %s declares Mutable but product lacks Insert/Delete", f.Name)
					}
					return lix.ObserveMutable(mi, m), nil
				}
				return lix.Observe(ix, m), nil
			}
			nInit, nOps := diffSizes1D(t)
			w, err := NewWorkload1D(Shapes1D()[0], nInit, nOps, f.Caps.Mutable, 0x0b5e+int64(len(f.Name)))
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			if d := Run1D(wf, w, 0); d != nil {
				t.Fatalf("observed wrapper diverged:\n%s", d)
			}
		})
	}
}

// TestObservedSamplingHammer is the concurrent half of the sampling
// contract (run under -race by the CI race tier): two goroutines hammer
// Get, Insert and Delete on one observed sharded stack. The operation
// counters must be exact, and each sampled latency histogram must hold
// ops/SampleEvery observations to within one per counter stripe (obs
// stripes a counter 8 ways; a stripe times exactly one call in every
// SampleEvery it counts, whichever goroutine makes it).
func TestObservedSamplingHammer(t *testing.T) {
	const stripes = 8
	perWorker := 40_000
	if testing.Short() {
		perWorker = 8_000
	}
	recs := make([]core.KV, 4096)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(2 * i), Value: core.Value(i)}
	}
	m := lix.NewMetrics("hammer")
	st, err := lix.NewStack(recs, lix.StackConfig{Shards: 4, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Odd keys are this worker's own churn slots; even keys
				// are the preloaded ones and always hit.
				churn := core.Key(2*((i*2+w)%len(recs)) + 1)
				st.Get(core.Key(2 * (i % len(recs))))
				st.Insert(churn, core.Value(i))
				st.Delete(churn)
			}
		}(w)
	}
	wg.Wait()

	ops := uint64(2 * perWorker)
	s := m.Snapshot()
	for _, c := range []string{"lookups", "hits", "inserts", "deletes"} {
		if got := s.Counters[c]; got != ops {
			t.Errorf("%s = %d, want exactly %d", c, got, ops)
		}
	}
	for _, h := range []string{"get_ns", "insert_ns", "delete_ns"} {
		got, want := s.Histograms[h].Count, ops/lix.SampleEvery
		if got+stripes < want || got > want+stripes {
			t.Errorf("%s holds %d samples after %d ops, want %d ± %d", h, got, ops, want, stripes)
		}
	}
}
