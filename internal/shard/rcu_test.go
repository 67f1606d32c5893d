package shard

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/lix-go/lix/internal/core"
)

// within fails the test if fn has not returned after d. The goroutine is
// left behind on failure: the point is to turn a hang into a test failure.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestRCUManyParkedScans parks more readers inside Range callbacks than
// the reclamation domain this package used to have had pin slots (64):
// the next reader then spun forever looking for a free slot. A reader
// holds nothing now, so point reads, delta-crossing writes and the merge
// pipeline all make progress beside any number of parked scans.
func TestRCUManyParkedScans(t *testing.T) {
	recs := sortedRecs(4096, 17)
	s, err := New(recs, Config{Shards: 4, Mode: LockRCU, DeltaCap: 64}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const scans = 100
	release := make(chan struct{})
	var parked, finished sync.WaitGroup
	for i := 0; i < scans; i++ {
		parked.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			first := true
			s.Range(0, math.MaxUint64, func(core.Key, core.Value) bool {
				if first {
					first = false
					parked.Done()
					<-release
				}
				return true
			})
		}()
	}
	within(t, 10*time.Second, "parking 100 scans", parked.Wait)

	within(t, 10*time.Second, "Get, inserts and WaitMerges beside parked scans", func() {
		if v, ok := s.Get(recs[0].Key); !ok || v != recs[0].Value {
			t.Errorf("Get(%d) = (%d, %v), want (%d, true)", recs[0].Key, v, ok, recs[0].Value)
		}
		for i := 0; i < 4*64*4; i++ { // several merges on every shard
			s.Insert(recs[i%len(recs)].Key+1, core.Value(i))
		}
		s.WaitMerges()
	})
	if s.RCUSwaps() == 0 {
		t.Error("no snapshot swap beside the parked scans")
	}

	close(release)
	within(t, 10*time.Second, "released scans", finished.Wait)
}

// TestRCUInsertAfterClose pins that a closed RCU shard still takes writes:
// an in-memory stack's Close is documented as a no-op, and a writer that
// reached DeltaBound on a closed shard used to spin holding the shard
// mutex, because the backpressure gate asked for a merge that a closed
// shard refused to start.
func TestRCUInsertAfterClose(t *testing.T) {
	s, err := New(nil, Config{Shards: 1, Mode: LockRCU, DeltaCap: 64}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	within(t, 20*time.Second, "inserts after Close", func() {
		for i := 0; i < n; i++ {
			s.Insert(core.Key(i)*7919, core.Value(i))
		}
		s.WaitMerges()
	})
	if got := s.Len(); got != n {
		t.Fatalf("Len after post-Close inserts = %d, want %d", got, n)
	}
	if v, ok := s.Get(7919 * (n - 1)); !ok || v != n-1 {
		t.Fatalf("Get(last) = (%d, %v), want (%d, true)", v, ok, n-1)
	}
	if dl, ceil := s.DeltaLen(0), s.DeltaCeiling(); dl > 2*ceil {
		t.Fatalf("delta grew to %d past the ceiling %d after Close", dl, ceil)
	}
}

// TestRCUConcurrentDeleteOfOneKeyUnderBackpressure pins that a key is
// deleted once: two deleters of the same live key that both stall on the
// delta bound (the stall releases the shard mutex) must not both find it
// live afterwards. The snapshot builder is gated so the stall is certain.
func TestRCUConcurrentDeleteOfOneKeyUnderBackpressure(t *testing.T) {
	gate := make(chan struct{})
	b := testBuilders()
	static := b.Static
	first := true // New builds the one shard before anything else runs
	b.Static = func(recs []core.KV) (Index, error) {
		if !first {
			<-gate
		}
		first = false
		return static(recs)
	}
	s, err := New(nil, Config{Shards: 1, Mode: LockRCU, DeltaCap: 8, DeltaBound: 8}, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fill until a writer would stall: a merge is in flight (held at the
	// gate) and the active run is back at the bound.
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		for i := 0; s.RCUStalls() == 0; i++ {
			s.Insert(core.Key(i), core.Value(i))
		}
	}()
	for s.RCUStalls() == 0 {
		time.Sleep(time.Millisecond)
	}
	results := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() { results <- s.Delete(0) }()
	}
	for s.RCUStalls() < 3 { // the filler and both deleters are parked
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-stalled
	if a, b := <-results, <-results; a == b {
		t.Fatalf("two concurrent Delete(0) returned %v and %v, want exactly one true", a, b)
	}
	want := 0
	s.Range(0, math.MaxUint64, func(core.Key, core.Value) bool { want++; return true })
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d, a full scan counts %d", got, want)
	}
}
