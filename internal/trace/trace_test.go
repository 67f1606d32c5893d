package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.HotKeys() {
		t.Fatal("nil tracer reports enabled")
	}
	if sp := tr.Start(3); sp != nil {
		t.Fatal("nil tracer sampled a span")
	}
	tr.Finish(nil)
	tr.SetSampleRate(1)
	tr.SetSlowThreshold(time.Second)
	tr.TouchKey(1)
	tr.TouchKeys([]core.Key{1, 2})
	if tr.TopKeys(4) != nil || tr.Sampled() != 0 || tr.Slow() != 0 {
		t.Fatal("nil tracer returned non-zero state")
	}
}

func TestSamplingRates(t *testing.T) {
	m := obs.NewMetrics("s")

	off := New(Config{SampleRate: 0, Metrics: m})
	if off.Enabled() {
		t.Fatal("rate 0 reports enabled")
	}
	for i := 0; i < 1000; i++ {
		if off.Start(1) != nil {
			t.Fatal("rate 0 sampled a span")
		}
	}

	all := New(Config{SampleRate: 1, Metrics: m})
	for i := 0; i < 1000; i++ {
		sp := all.Start(1)
		if sp == nil {
			t.Fatal("rate 1 skipped a span")
		}
		all.Finish(sp)
	}
	if got := all.Sampled(); got != 1000 {
		t.Fatalf("Sampled() = %d, want 1000", got)
	}

	// A fractional rate should land near its expectation: 10% over 20k
	// draws has σ≈21, so ±10σ bounds make a flake essentially impossible
	// while still catching an off-by-10x threshold bug.
	frac := New(Config{SampleRate: 0.1, Metrics: m})
	hits := 0
	for i := 0; i < 20000; i++ {
		if sp := frac.Start(1); sp != nil {
			hits++
			frac.Finish(sp)
		}
	}
	if hits < 1500 || hits > 2500 {
		t.Fatalf("rate 0.1 sampled %d/20000, want ~2000", hits)
	}

	// Runtime rate changes must take effect without a new tracer.
	frac.SetSampleRate(0)
	if frac.Enabled() || frac.Start(1) != nil {
		t.Fatal("SetSampleRate(0) did not disable sampling")
	}
}

func TestSpanStagesAndHistograms(t *testing.T) {
	m := obs.NewMetrics("st")
	tr := New(Config{SampleRate: 1, Metrics: m})

	sp := tr.Start(5)
	if sp == nil {
		t.Fatal("rate 1 returned nil span")
	}
	if sp.Ops() != 5 {
		t.Fatalf("Ops() = %d, want 5", sp.Ops())
	}
	sp.Add(core.StageDecode, 100)
	sp.Add(core.StageDispatch, 2000)
	sp.Add(core.StageShard, 1500)
	sp.Add(core.StageWAL, 300)
	sp.Add(core.StageWAL, 200) // accumulates
	sp.Add(core.StageFsync, 50)
	sp.Add(core.StageShard, -5) // non-positive ignored
	if got := sp.Stage(core.StageWAL); got != 500 {
		t.Fatalf("Stage(WAL) = %d, want 500", got)
	}
	tl := sp.Timeline()
	for _, want := range []string{"ops=5", "decode=100ns", "dispatch=2µs", "shard=1.5µs", "wal=500ns", "fsync=50ns"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline %q missing %q", tl, want)
		}
	}
	tr.Finish(sp)

	for name, h := range map[string]*obs.Histogram{
		"decode_ns":   &m.DecodeNS,
		"dispatch_ns": &m.DispatchNS,
		"shard_ns":    &m.ShardNS,
		"wal_ns":      &m.WalNS,
	} {
		if got := h.Snapshot().Count; got != 1 {
			t.Fatalf("%s count = %d, want 1", name, got)
		}
	}
	// Fsync stays the store's histogram; Finish must not double-feed it.
	if got := m.FsyncNS.Snapshot().Count; got != 0 {
		t.Fatalf("fsync_ns count = %d, want 0 (store-owned)", got)
	}
	if got := m.WalNS.Snapshot().Sum; got != 500 {
		t.Fatalf("wal_ns sum = %d, want 500", got)
	}

	// Pool reuse must hand back a clean span.
	sp2 := tr.Start(1)
	if sp2.Stage(core.StageWAL) != 0 || sp2.Stage(core.StageDecode) != 0 {
		t.Fatal("pooled span not reset")
	}
	tr.Finish(sp2)
}

func TestSlowRequestEvent(t *testing.T) {
	m := obs.NewMetrics("slow")
	tr := New(Config{SampleRate: 1, SlowThreshold: time.Microsecond, Metrics: m})

	sp := tr.Start(2)
	sp.Add(core.StageShard, 3*time.Millisecond) // stage time alone doesn't make it slow...
	time.Sleep(2 * time.Millisecond)            // ...wall time does
	tr.Finish(sp)

	if got := m.Events.Count(obs.EvSlowRequest); got != 1 {
		t.Fatalf("slow_request events = %d, want 1", got)
	}
	if got := tr.Slow(); got != 1 {
		t.Fatalf("Slow() = %d, want 1", got)
	}
	evs := m.Events.Recent(1)
	if len(evs) != 1 {
		t.Fatal("no recent event")
	}
	e := evs[0]
	for _, want := range []string{"ops=2", "shard=3ms", "total="} {
		if !strings.Contains(e.Detail, want) {
			t.Fatalf("slow event detail %q missing %q", e.Detail, want)
		}
	}
	if e.N < int(2*time.Millisecond) {
		t.Fatalf("slow event N = %d, want >= 2ms of nanoseconds", e.N)
	}

	// Under the threshold: no event.
	fast := New(Config{SampleRate: 1, SlowThreshold: time.Hour, Metrics: m})
	sp = fast.Start(1)
	fast.Finish(sp)
	if got := m.Events.Count(obs.EvSlowRequest); got != 1 {
		t.Fatalf("fast request published a slow event (count %d)", got)
	}

	// Threshold 0 disables the slow log even for glacial requests.
	off := New(Config{SampleRate: 1, Metrics: m})
	sp = off.Start(1)
	sp.Add(core.StageShard, time.Hour)
	off.Finish(sp)
	if got := m.Events.Count(obs.EvSlowRequest); got != 1 {
		t.Fatalf("threshold 0 published a slow event (count %d)", got)
	}
}

func TestConcurrentSpanAdds(t *testing.T) {
	m := obs.NewMetrics("conc")
	tr := New(Config{SampleRate: 1, Metrics: m})
	sp := tr.Start(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sp.Add(core.StageWAL, 1)
				sp.Add(core.StageFsync, 2)
			}
		}()
	}
	wg.Wait()
	if got := sp.Stage(core.StageWAL); got != 8000 {
		t.Fatalf("concurrent WAL stage = %d, want 8000", got)
	}
	if got := sp.Stage(core.StageFsync); got != 16000 {
		t.Fatalf("concurrent fsync stage = %d, want 16000", got)
	}
	tr.Finish(sp)
}

func TestNewPanicsWithoutMetrics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(SampleRate>0, Metrics=nil) did not panic")
		}
	}()
	New(Config{SampleRate: 0.5})
}

func TestTracerHotKeys(t *testing.T) {
	m := obs.NewMetrics("hk")
	tr := New(Config{SampleRate: 0, TopK: 8, Metrics: m})
	if !tr.HotKeys() {
		t.Fatal("TopK > 0 did not enable hot keys")
	}
	if tr.Enabled() {
		t.Fatal("hot keys alone must not enable span sampling")
	}
	for i := 0; i < 100; i++ {
		tr.TouchKey(42)
	}
	tr.TouchKeys([]core.Key{7, 7, 9})
	top := tr.TopKeys(2)
	if len(top) != 2 || top[0].Key != 42 || top[0].Count != 100 || top[1].Key != 7 {
		t.Fatalf("TopKeys = %+v", top)
	}
}
