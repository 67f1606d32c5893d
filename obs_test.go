package lix

import (
	"bytes"
	"math/bits"
	"strings"
	"testing"
	"time"

	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/registry"
	"github.com/lix-go/lix/internal/xindex"
)

// checkSampled asserts the sampling contract for one point-operation
// histogram after ops calls: its count is ops/SampleEvery to within one
// per counter stripe (obs stripes a counter 8 ways and each stripe's
// sample count is exact to within one).
func checkSampled(t *testing.T, s MetricsSnapshot, hist string, ops uint64) {
	t.Helper()
	const stripes = 8
	got, want := s.Histograms[hist].Count, ops/SampleEvery
	if got+stripes < want || got > want+stripes {
		t.Fatalf("%s holds %d samples after %d ops, want %d ± %d", hist, got, ops, want, stripes)
	}
}

func obsTestRecs(n int) []KV {
	recs := make([]KV, n)
	for i := range recs {
		recs[i] = KV{Key: Key(i * 7), Value: Value(i)}
	}
	return recs
}

// TestObserveRecordsAcrossKinds drives the acceptance matrix: for RMI, PGM,
// ALEX, LIPP, XIndex and RadixSpline, an observed index must record
// per-op latency histograms, counters, and — with search metrics enabled —
// probe counts and error-window widths from the shared last-mile search.
func TestObserveRecordsAcrossKinds(t *testing.T) {
	recs := obsTestRecs(3000)

	builders := []struct {
		kind  string
		build func(t *testing.T) Index
	}{
		{"rmi", func(t *testing.T) Index {
			ix, err := NewRMI(recs, RMIConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"pgm", func(t *testing.T) Index {
			ix, err := NewPGM(recs, 0)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"alex", func(t *testing.T) Index {
			ix, err := registry.BuildMutable("alex", recs)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"lipp", func(t *testing.T) Index {
			ix, err := registry.BuildMutable("lipp", recs)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"xindex", func(t *testing.T) Index {
			ix, err := BulkXIndex(recs, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		{"radixspline", func(t *testing.T) Index {
			ix, err := NewRadixSpline(recs, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}},
	}

	for _, b := range builders {
		t.Run(b.kind, func(t *testing.T) {
			m := NewMetrics(b.kind)
			o := Observe(b.build(t), m)
			EnableSearchMetrics(m)
			defer DisableSearchMetrics()

			hits := 0
			for _, r := range recs[:500] {
				v, ok := o.Get(r.Key)
				if !ok || v != r.Value {
					t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", r.Key, v, ok, r.Value)
				}
				hits++
			}
			if _, ok := o.Get(recs[len(recs)-1].Key + 1); ok {
				t.Fatal("Get(absent) hit")
			}
			got := 0
			o.Range(recs[10].Key, recs[20].Key, func(Key, Value) bool { got++; return true })
			if got != 11 {
				t.Fatalf("Range visited %d, want 11", got)
			}
			DisableSearchMetrics()

			s := m.Snapshot()
			if s.Counters["lookups"] != 501 || s.Counters["hits"] != 500 {
				t.Fatalf("lookups=%d hits=%d, want 501/500", s.Counters["lookups"], s.Counters["hits"])
			}
			if s.Counters["ranges"] != 1 {
				t.Fatalf("ranges = %d, want 1", s.Counters["ranges"])
			}
			checkSampled(t, s, "get_ns", 501)
			if c := s.Histograms["range_ns"].Count; c != 1 {
				t.Fatalf("range_ns count = %d, want 1", c)
			}
			if s.Histograms["range_len"].Max != 11 {
				t.Fatalf("range_len max = %d, want 11", s.Histograms["range_len"].Max)
			}
			// Every surveyed kind must feed the correction-cost histograms:
			// the learned ones through core.SearchRange/ExponentialSearch,
			// LIPP through its recorded descent (probes = node hops).
			if c := s.Histograms["search_probes"].Count; c == 0 {
				t.Fatal("no probe counts recorded")
			}
			if c := s.Histograms["search_window"].Count; c == 0 {
				t.Fatal("no error-window widths recorded")
			}
			if b.kind == "lipp" {
				if p50 := s.Histograms["search_probes"].P50; p50 < 1 {
					t.Fatalf("lipp descent p50 = %d, want >= 1", p50)
				}
			}
		})
	}
}

// TestObserveMutableRecordsWritesAndEvents checks the write-side histograms
// and that structural events flow from inside the index into the bundle.
func TestObserveMutableRecordsWritesAndEvents(t *testing.T) {
	cases := []struct {
		kind      string
		wantEvent EventType
	}{
		{"alex", EvNodeSplit},
		{"lipp", EvNodeSplit},
		{"pgm-dynamic", EvBufferFlush},
		{"fiting", EvBufferMerge},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			idx, err := BuildMutable1D(c.kind)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMetrics(c.kind)
			o := ObserveMutable(idx, m)
			// A scrambled insert order provokes structural adaptation.
			const n = 20000
			for i := 0; i < n; i++ {
				k := Key((i * 2654435761) % (8 * n))
				o.Insert(k, Value(i))
			}
			o.Delete(Key(0))
			s := m.Snapshot()
			if s.Counters["inserts"] != n || s.Counters["deletes"] != 1 {
				t.Fatalf("inserts=%d deletes=%d", s.Counters["inserts"], s.Counters["deletes"])
			}
			checkSampled(t, s, "insert_ns", n)
			checkSampled(t, s, "delete_ns", 1)
			if got := m.Events.Count(c.wantEvent); got == 0 {
				t.Fatalf("no %v events recorded", c.wantEvent)
			}
		})
	}
}

// TestObserveXIndexEvents covers the concurrent index separately: its
// compactions retrain groups and swap the root RCU-style.
func TestObserveXIndexEvents(t *testing.T) {
	ix := xindex.New(64, 16)
	m := NewMetrics("xindex")
	ix.SetObserver(m)
	for i := 0; i < 5000; i++ {
		ix.Insert(Key((i*2654435761)%100000), Value(i))
	}
	if m.Events.Count(EvCompaction) == 0 {
		t.Fatal("no compaction events")
	}
	if m.Events.Count(EvRetrain) == 0 {
		t.Fatal("no retrain events")
	}
	if m.Events.Count(EvRCUSwap) == 0 {
		t.Fatal("no RCU swap events")
	}
}

// TestObserveTransparency checks the non-recording forwards.
func TestObserveTransparency(t *testing.T) {
	recs := obsTestRecs(100)
	base := newSortedArray(recs)
	m := NewMetrics("t")
	o := Observe(base, m)
	if o.Len() != base.Len() {
		t.Fatalf("Len = %d, want %d", o.Len(), base.Len())
	}
	if o.Stats() != base.Stats() {
		t.Fatalf("Stats = %v, want %v", o.Stats(), base.Stats())
	}
	if o.Unwrap() != base {
		t.Fatal("Unwrap lost the index")
	}
	if o.Metrics() != m {
		t.Fatal("Metrics lost the bundle")
	}
	// CheckInvariants must see through the wrapper to the sorted array's
	// own self-check.
	if err := CheckInvariants(o); err != nil {
		t.Fatalf("CheckInvariants through wrapper: %v", err)
	}
}

// TestDriftClosedLoop wires the live correction-cost stream into a drift
// detector and asserts the loop closes: wide error windows trip the
// detector, which fires the retrain callback and publishes EvDriftTrip.
func TestDriftClosedLoop(t *testing.T) {
	recs := obsTestRecs(4000)
	ix, err := NewPGM(recs, 64) // wide eps -> wide windows -> high cost
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics("pgm")
	det, err := NewDriftEWMA(1.0, 2.0, 0.5) // trips once smoothed cost > 2
	if err != nil {
		t.Fatal(err)
	}
	retrained := false
	m.SetDriftDetector(det, func() { retrained = true })
	o := Observe(ix, m)
	EnableSearchMetrics(m)
	defer DisableSearchMetrics()
	for _, r := range recs[:200] {
		o.Get(r.Key)
	}
	DisableSearchMetrics()
	if !retrained {
		t.Fatal("drift detector never tripped on wide-window lookups")
	}
	if !m.DriftTripped() {
		t.Fatal("DriftTripped not latched")
	}
	if m.Events.Count(EvDriftTrip) != 1 {
		t.Fatalf("EvDriftTrip count = %d, want 1 (latched)", m.Events.Count(EvDriftTrip))
	}
	// Re-arm (as a retrain would) and confirm the loop can trip again.
	m.ReArmDrift()
	det.Reset(1.0)
	EnableSearchMetrics(m)
	for _, r := range recs[:200] {
		o.Get(r.Key)
	}
	DisableSearchMetrics()
	if m.Events.Count(EvDriftTrip) != 2 {
		t.Fatalf("EvDriftTrip after re-arm = %d, want 2", m.Events.Count(EvDriftTrip))
	}
}

// TestWriteMetricsPrometheus smoke-tests the public text rendering.
func TestWriteMetricsPrometheus(t *testing.T) {
	m := NewMetrics("demo")
	o := Observe(newSortedArray(obsTestRecs(10)), m)
	o.Get(7)
	var buf bytes.Buffer
	if err := WriteMetricsPrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lix_lookups_total{index="demo"} 1`,
		`lix_get_ns_count{index="demo"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, out)
		}
	}
}

// spinIndex is a synthetic backend for the sampling tests: every call
// busy-waits for delay(i) (i counts calls; a nil delay returns at once)
// and records the time it took into full, the fully-timed reference the
// sampled histograms are compared with.
type spinIndex struct {
	calls int
	delay func(i int) time.Duration
	full  obs.Histogram
}

func (x *spinIndex) spin() {
	i := x.calls
	x.calls++
	if x.delay == nil {
		return
	}
	start := time.Now()
	d := x.delay(i)
	for time.Since(start) < d {
	}
	x.full.Observe(uint64(time.Since(start)))
}

func (x *spinIndex) Get(Key) (Value, bool)                       { x.spin(); return 0, true }
func (x *spinIndex) Insert(Key, Value)                           { x.spin() }
func (x *spinIndex) Delete(Key) bool                             { x.spin(); return true }
func (x *spinIndex) Range(_, _ Key, _ func(Key, Value) bool) int { return 0 }
func (x *spinIndex) Len() int                                    { return 0 }
func (x *spinIndex) Stats() Stats                                { return Stats{} }

// TestSampledLatencyMatchesFullyTimed drives observed Gets against a
// bimodal backend (3 µs and 23 µs calls, each mid-bucket, one call in
// eight slow) and compares the sampled get_ns with the backend's own
// timing of every call: same p50 bucket, p99 in the slow mode on both
// sides, and the same share of slow-mode observations. The period-N
// pattern makes every SampleEvery-th call the slow one, which a
// count%SampleEvery rule would sample either always or never. (The exact
// p99 bucket is compared on synthetic streams in internal/obs: here the
// scheduler of a shared box moves about 1 % of wall-clock samples.)
func TestSampledLatencyMatchesFullyTimed(t *testing.T) {
	const (
		ops  = 16000
		fast = 3 * time.Microsecond
		slow = 23 * time.Microsecond
	)
	slowBucket := bits.Len64(uint64(slow))
	slowShare := func(h obs.HistSnapshot) float64 {
		var n uint64
		for _, c := range h.Buckets[slowBucket:] {
			n += c
		}
		return float64(n) / float64(h.Count)
	}
	patterns := []struct {
		name   string
		isSlow func(i int) bool
	}{
		{"period-N", func(i int) bool { return i%SampleEvery == 0 }},
		{"scattered", func(i int) bool { return uint32(i)*2654435761>>16%8 == 0 }},
	}
	for _, p := range patterns {
		t.Run(p.name, func(t *testing.T) {
			backend := &spinIndex{delay: func(i int) time.Duration {
				if p.isSlow(i) {
					return slow
				}
				return fast
			}}
			m := NewMetrics("bimodal")
			o := Observe(backend, m)
			for i := 0; i < ops; i++ {
				o.Get(Key(i))
			}
			s := m.Snapshot()
			if s.Counters["lookups"] != ops || s.Counters["hits"] != ops {
				t.Fatalf("lookups=%d hits=%d, want %d exactly", s.Counters["lookups"], s.Counters["hits"], ops)
			}
			checkSampled(t, s, "get_ns", ops)
			full, got := backend.full.Snapshot(), m.GetNS.Snapshot()
			if f, g := full.Quantile(0.50), got.Quantile(0.50); bits.Len64(f) != bits.Len64(g) {
				t.Errorf("p50: fully timed %d ns, sampled %d ns — different buckets", f, g)
			}
			if f, g := full.Quantile(0.99), got.Quantile(0.99); bits.Len64(f) < slowBucket || bits.Len64(g) < slowBucket {
				t.Errorf("p99: fully timed %d ns, sampled %d ns — below the slow mode (%v)", f, g, slow)
			}
			if f, g := slowShare(full), slowShare(got); g < f-0.03 || g > f+0.03 {
				t.Errorf("slow-mode share: fully timed %.3f, sampled %.3f", f, g)
			}
		})
	}
}

// TestObservedPointOpsAllocFree pins that the wrapper adds no allocation
// to Get, Insert or Delete, on timed and untimed calls alike.
func TestObservedPointOpsAllocFree(t *testing.T) {
	o := ObserveMutable(&spinIndex{}, NewMetrics("allocs"))
	for name, op := range map[string]func(){
		"Get":    func() { o.Get(1) },
		"Insert": func() { o.Insert(1, 2) },
		"Delete": func() { o.Delete(1) },
	} {
		if n := testing.AllocsPerRun(10*SampleEvery, op); n != 0 {
			t.Errorf("observed %s allocates %.1f times per call, want 0", name, n)
		}
	}
}
