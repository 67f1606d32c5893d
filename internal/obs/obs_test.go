package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero counter loads %d", c.Load())
	}
	for i := 0; i < 1000; i++ {
		c.Inc()
	}
	c.Add(24)
	if got := c.Load(); got != 1024 {
		t.Fatalf("Load() = %d, want 1024", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	cases := []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40, ^uint64(0)}
	for _, v := range cases {
		h.Observe(v)
	}
	if h.Count() != uint64(len(cases)) {
		t.Fatalf("Count() = %d, want %d", h.Count(), len(cases))
	}
	s := h.Snapshot()
	if s.Max != ^uint64(0) {
		t.Fatalf("Max = %d", s.Max)
	}
	for _, v := range cases {
		b := bits.Len64(v)
		if s.Buckets[b] == 0 {
			t.Errorf("observation %d landed outside bucket %d", v, b)
		}
		if v != 0 && (v < BucketUpper(b-1)+1 || v > BucketUpper(b)) {
			t.Errorf("bucket %d bounds (%d, %d] exclude %d", b, BucketUpper(b-1), BucketUpper(b), v)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 observations of 10 and one of 100000.
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	h.Observe(100000)
	if q := h.Quantile(0.5); q < 10 || q > 15 {
		t.Errorf("p50 = %d, want ~10 (log2 bucket upper bound 15)", q)
	}
	// The tail quantile must be clamped to the observed max.
	if q := h.Quantile(1); q != 100000 {
		t.Errorf("p100 = %d, want 100000", q)
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 {
		t.Errorf("empty quantile not 0")
	}
	if empty.Snapshot().Mean() != 0 {
		t.Errorf("empty mean not 0")
	}
}

func TestEventLogRingAndCounts(t *testing.T) {
	var l EventLog
	for i := 0; i < DefaultEventRing+10; i++ {
		l.Publish(Event{Type: EvNodeSplit, N: i})
	}
	l.Publish(Event{Type: EvRetrain, Detail: "final"})
	if got := l.Count(EvNodeSplit); got != DefaultEventRing+10 {
		t.Fatalf("Count(EvNodeSplit) = %d", got)
	}
	if got := l.Count(EvRetrain); got != 1 {
		t.Fatalf("Count(EvRetrain) = %d", got)
	}
	if got := l.Total(); got != DefaultEventRing+11 {
		t.Fatalf("Total() = %d", got)
	}
	rec := l.Recent(3)
	if len(rec) != 3 {
		t.Fatalf("Recent(3) returned %d events", len(rec))
	}
	last := rec[len(rec)-1]
	if last.Type != EvRetrain || last.Detail != "final" || last.TypeName != "retrain" {
		t.Fatalf("last recent event = %+v", last)
	}
	if rec[0].Seq+1 != rec[1].Seq || rec[1].Seq+1 != rec[2].Seq {
		t.Fatalf("recent events out of sequence: %+v", rec)
	}
	// Asking for more than retained yields the ring's worth.
	if n := len(l.Recent(10 * DefaultEventRing)); n != DefaultEventRing {
		t.Fatalf("Recent(huge) returned %d, want %d", n, DefaultEventRing)
	}
}

func TestEventLogHandler(t *testing.T) {
	var l EventLog
	var seen []Event
	l.OnEvent(func(e Event) { seen = append(seen, e) })
	l.Publish(Event{Type: EvCompaction, N: 7})
	l.OnEvent(nil)
	l.Publish(Event{Type: EvCompaction, N: 8})
	if len(seen) != 1 || seen[0].N != 7 {
		t.Fatalf("handler saw %+v", seen)
	}
}

func TestHookDisabledAndEnabled(t *testing.T) {
	var h Hook
	if h.Enabled() {
		t.Fatal("zero Hook reports enabled")
	}
	h.Emit(EvRetrain, 1, "") // must be a no-op, not a panic
	if h.Recorder() != nil {
		t.Fatal("zero Hook returns a recorder")
	}
	m := NewMetrics("idx")
	h.SetRecorder(m)
	if !h.Enabled() {
		t.Fatal("Hook not enabled after SetRecorder")
	}
	h.Emit(EvRetrain, 3, "rebuild")
	if m.Events.Count(EvRetrain) != 1 {
		t.Fatal("emitted event not recorded")
	}
	rec := m.Events.Recent(1)
	if len(rec) != 1 || rec[0].Source != "idx" || rec[0].Detail != "rebuild" || rec[0].N != 3 {
		t.Fatalf("recorded event = %+v", rec)
	}
	h.SetRecorder(nil)
	if h.Enabled() {
		t.Fatal("Hook enabled after detach")
	}
}

func TestMetricsRecordSearchAndSnapshot(t *testing.T) {
	m := NewMetrics("rmi")
	m.RecordSearch(5, 32)
	m.RecordSearch(3, 8)
	m.RecordSearch(-1, -1) // clamped, not panicking
	m.Lookups.Add(3)
	m.Hits.Add(2)
	m.GetNS.Observe(1500)

	s := m.Snapshot()
	if s.Name != "rmi" {
		t.Fatalf("snapshot name %q", s.Name)
	}
	if s.Counters["lookups"] != 3 || s.Counters["hits"] != 2 {
		t.Fatalf("counters %+v", s.Counters)
	}
	if s.Histograms["search_probes"].Count != 3 {
		t.Fatalf("probes count %d", s.Histograms["search_probes"].Count)
	}
	if s.Histograms["search_window"].Max != 32 {
		t.Fatalf("window max %d", s.Histograms["search_window"].Max)
	}
	if s.Histograms["get_ns"].Mean != 1500 {
		t.Fatalf("get_ns mean %g", s.Histograms["get_ns"].Mean)
	}
	// A snapshot must round-trip through JSON (the lixbench -metrics path).
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters["lookups"] != 3 {
		t.Fatalf("round-trip lost counters: %+v", back.Counters)
	}
}

// fixedDetector trips after a fixed number of observations.
type fixedDetector struct{ left int }

func (d *fixedDetector) Observe(float64) bool { d.left--; return d.left <= 0 }

func TestDriftLoop(t *testing.T) {
	m := NewMetrics("alex")
	trips := 0
	m.SetDriftDetector(&fixedDetector{left: 3}, func() { trips++ })
	for i := 0; i < 10; i++ {
		m.RecordSearch(4, 100)
	}
	if trips != 1 {
		t.Fatalf("onTrip ran %d times, want 1 (latched)", trips)
	}
	if !m.DriftTripped() {
		t.Fatal("DriftTripped() false after trip")
	}
	if m.Events.Count(EvDriftTrip) != 1 {
		t.Fatalf("EvDriftTrip count %d", m.Events.Count(EvDriftTrip))
	}
	m.SetDriftDetector(&fixedDetector{left: 2}, func() { trips++ })
	m.RecordSearch(4, 100)
	m.RecordSearch(4, 100)
	if trips != 2 || m.Events.Count(EvDriftTrip) != 2 {
		t.Fatalf("second detector: trips=%d events=%d", trips, m.Events.Count(EvDriftTrip))
	}
	m.ReArmDrift()
	if m.DriftTripped() {
		t.Fatal("still tripped after ReArmDrift")
	}
}

func TestPublishExpvar(t *testing.T) {
	m := NewMetrics("expvar-test")
	m.Lookups.Add(9)
	if err := m.PublishExpvar("lix-obs-test"); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := m.PublishExpvar("lix-obs-test"); err == nil {
		t.Fatal("duplicate publish did not error")
	}
	v := expvar.Get("lix-obs-test")
	if v == nil {
		t.Fatal("expvar not registered")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar payload not JSON: %v", err)
	}
	if s.Counters["lookups"] != 9 {
		t.Fatalf("expvar snapshot counters %+v", s.Counters)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Load(); got != 1 {
		t.Fatalf("gauge after Inc,Inc,Dec = %d, want 1", got)
	}
	g.Add(-5)
	if got := g.Load(); got != -4 {
		t.Fatalf("gauge after Add(-5) = %d, want -4", got)
	}
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge after Set(7) = %d, want 7", got)
	}
	m := NewMetrics("g")
	m.Conns.Inc()
	if s := m.Snapshot(); s.Gauges["conns"] != 1 {
		t.Fatalf("snapshot gauges %+v, want conns=1", s.Gauges)
	}
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte.
func TestWritePrometheusGolden(t *testing.T) {
	m := NewMetrics("t")
	m.Lookups.Add(2)
	m.Hits.Add(1)
	m.GetNS.Observe(1)
	m.GetNS.Observe(3)
	m.FilterProbes.Add(100)
	m.FilterSkips.Add(93)
	m.FilterFPs.Add(2)
	m.LSMRuns.Set(3)
	m.LSMRunBytes.Set(40960)
	m.LSMTombs.Set(5)
	m.FilterBytes.Set(2048)
	m.FilterFPRPpm.Set(7000)
	m.Events.Publish(Event{Type: EvRetrain})
	for i := 0; i < 3; i++ {
		m.RecordLockWait(false, false)
	}
	m.RecordLockWait(true, false)
	m.RecordLockWait(true, true)

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	emptyHist := func(name string) string {
		return fmt.Sprintf(`# TYPE %s histogram
%s_bucket{index="t",le="+Inf"} 0
%s_sum{index="t"} 0
%s_count{index="t"} 0
`, name, name, name, name)
	}
	// Only the three sampled point-operation histograms carry a HELP line;
	// every other series is byte-for-byte what it was before sampling.
	sampledHelp := func(name, counter string) string {
		return fmt.Sprintf("# HELP %s In-process point operations are timed 1 in 8: _count is the number of latency samples, not of operations; take rates from %s.\n", name, counter)
	}
	golden := `# TYPE lix_lookups_total counter
lix_lookups_total{index="t"} 2
# TYPE lix_hits_total counter
lix_hits_total{index="t"} 1
# TYPE lix_inserts_total counter
lix_inserts_total{index="t"} 0
# TYPE lix_deletes_total counter
lix_deletes_total{index="t"} 0
# TYPE lix_ranges_total counter
lix_ranges_total{index="t"} 0
# TYPE lix_batches_total counter
lix_batches_total{index="t"} 0
# TYPE lix_requests_total counter
lix_requests_total{index="t"} 0
# TYPE lix_errors_total counter
lix_errors_total{index="t"} 0
# TYPE lix_groups_total counter
lix_groups_total{index="t"} 0
# TYPE lix_flushes_total counter
lix_flushes_total{index="t"} 0
# TYPE lix_page_hits_total counter
lix_page_hits_total{index="t"} 0
# TYPE lix_page_misses_total counter
lix_page_misses_total{index="t"} 0
# TYPE lix_lsm_filter_probes_total counter
lix_lsm_filter_probes_total{index="t"} 100
# TYPE lix_lsm_filter_skips_total counter
lix_lsm_filter_skips_total{index="t"} 93
# TYPE lix_lsm_filter_false_positives_total counter
lix_lsm_filter_false_positives_total{index="t"} 2
# TYPE lix_wal_writes_total counter
lix_wal_writes_total{index="t"} 0
# TYPE lix_wal_bytes_total counter
lix_wal_bytes_total{index="t"} 0
# TYPE lix_lsm_flush_ns_total counter
lix_lsm_flush_ns_total{index="t"} 0
# TYPE lix_lsm_flush_bytes_total counter
lix_lsm_flush_bytes_total{index="t"} 0
# TYPE lix_lsm_compaction_ns_total counter
lix_lsm_compaction_ns_total{index="t"} 0
# TYPE lix_lsm_compaction_bytes_total counter
lix_lsm_compaction_bytes_total{index="t"} 0
# TYPE lix_shard_lock_contended_total counter
lix_shard_lock_contended_total{index="t",side="read"} 3
lix_shard_lock_contended_total{index="t",side="write"} 1
# TYPE lix_shard_lock_blocked_total counter
lix_shard_lock_blocked_total{index="t",side="read"} 0
lix_shard_lock_blocked_total{index="t",side="write"} 1
# TYPE lix_conns gauge
lix_conns{index="t"} 0
# TYPE lix_lsm_runs gauge
lix_lsm_runs{index="t"} 3
# TYPE lix_lsm_run_bytes gauge
lix_lsm_run_bytes{index="t"} 40960
# TYPE lix_lsm_tombstones gauge
lix_lsm_tombstones{index="t"} 5
# TYPE lix_lbf_filter_bytes gauge
lix_lbf_filter_bytes{index="t"} 2048
# TYPE lix_lbf_filter_fpr_ppm gauge
lix_lbf_filter_fpr_ppm{index="t"} 7000
` + sampledHelp("lix_get_ns", "lix_lookups_total") + `# TYPE lix_get_ns histogram
lix_get_ns_bucket{index="t",le="0"} 0
lix_get_ns_bucket{index="t",le="1"} 1
lix_get_ns_bucket{index="t",le="3"} 2
lix_get_ns_bucket{index="t",le="+Inf"} 2
lix_get_ns_sum{index="t"} 4
lix_get_ns_count{index="t"} 2
` +
		sampledHelp("lix_insert_ns", "lix_inserts_total") + emptyHist("lix_insert_ns") +
		sampledHelp("lix_delete_ns", "lix_deletes_total") + emptyHist("lix_delete_ns") +
		emptyHist("lix_range_ns") +
		emptyHist("lix_range_len") +
		emptyHist("lix_batch_ns") +
		emptyHist("lix_batch_len") +
		emptyHist("lix_search_probes") +
		emptyHist("lix_search_window") +
		emptyHist("lix_fsync_ns") +
		emptyHist("lix_group_len") +
		emptyHist("lix_decode_ns") +
		emptyHist("lix_dispatch_ns") +
		emptyHist("lix_shard_ns") +
		emptyHist("lix_wal_ns") +
		`# TYPE lix_events_total counter
lix_events_total{index="t",type="retrain"} 1
lix_events_total{index="t",type="node_split"} 0
lix_events_total{index="t",type="buffer_flush"} 0
lix_events_total{index="t",type="buffer_merge"} 0
lix_events_total{index="t",type="compaction"} 0
lix_events_total{index="t",type="rcu_swap"} 0
lix_events_total{index="t",type="drift_trip"} 0
lix_events_total{index="t",type="checkpoint"} 0
lix_events_total{index="t",type="wal_flush"} 0
lix_events_total{index="t",type="recovery"} 0
lix_events_total{index="t",type="drain"} 0
lix_events_total{index="t",type="slow_request"} 0
lix_events_total{index="t",type="page_evict"} 0
lix_events_total{index="t",type="page_flush"} 0
`
	if got := b.String(); got != golden {
		t.Fatalf("prometheus output mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

func TestWritePrometheusAll(t *testing.T) {
	a, b := NewMetrics("a"), NewMetrics("b")
	var out strings.Builder
	if err := WritePrometheusAll(&out, b, a); err != nil {
		t.Fatalf("WritePrometheusAll: %v", err)
	}
	ai := strings.Index(out.String(), `index="a"`)
	bi := strings.Index(out.String(), `index="b"`)
	if ai == -1 || bi == -1 || ai > bi {
		t.Fatalf("bundles not rendered sorted by name (a@%d b@%d)", ai, bi)
	}
	if err := WritePrometheusAll(&out, a, NewMetrics("a")); err == nil {
		t.Fatal("duplicate names not rejected")
	}
}

func TestEventTypeStrings(t *testing.T) {
	want := []string{"retrain", "node_split", "buffer_flush", "buffer_merge",
		"compaction", "rcu_swap", "drift_trip", "checkpoint", "wal_flush", "recovery",
		"drain", "slow_request", "page_evict", "page_flush"}
	types := EventTypes()
	if len(types) != len(want) {
		t.Fatalf("EventTypes() has %d entries, want %d", len(types), len(want))
	}
	for i, tt := range types {
		if tt.String() != want[i] {
			t.Errorf("EventType(%d).String() = %q, want %q", i, tt.String(), want[i])
		}
	}
	if s := EventType(200).String(); !strings.Contains(s, "200") {
		t.Errorf("unknown event type renders %q", s)
	}
	e := Event{Type: EvNodeSplit, Source: "alex", Detail: "expand", N: 128}
	if got := e.String(); got != "alex/node_split(expand) n=128" {
		t.Errorf("Event.String() = %q", got)
	}
}

// TestObserveNMatchesRepeatedObserve pins the weighted-observation
// contract: ObserveN(v, n) leaves exactly the snapshot n Observe(v) calls
// leave, and ObserveN(v, 0) leaves nothing (not even a max).
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	var weighted, looped Histogram
	for _, c := range []struct{ v, n uint64 }{
		{0, 3}, {1, 1}, {1500, 32}, {1 << 40, 2}, {99, 0}, {7, 5},
	} {
		weighted.ObserveN(c.v, c.n)
		for i := uint64(0); i < c.n; i++ {
			looped.Observe(c.v)
		}
	}
	if w, l := weighted.Snapshot(), looped.Snapshot(); w != l {
		t.Fatalf("ObserveN snapshot %+v\nlooped Observe snapshot %+v", w, l)
	}
	var empty Histogram
	empty.ObserveN(1<<50, 0)
	if s := empty.Snapshot(); s != (HistSnapshot{}) {
		t.Fatalf("ObserveN(v, 0) left %+v", s)
	}
}

// TestSampledOnePerBlock pins the shape of the sampling rule: every
// aligned block of SampleEvery consecutive stripe values holds exactly
// one timed slot, and the slot's offset moves from block to block with
// every offset used about equally often.
func TestSampledOnePerBlock(t *testing.T) {
	const blocks = 1 << 14
	var offsets [SampleEvery]int
	for b := uint64(0); b < blocks; b++ {
		hits := 0
		for o := uint64(0); o < SampleEvery; o++ {
			if sampled(b*SampleEvery + o) {
				hits++
				offsets[o]++
			}
		}
		if hits != 1 {
			t.Fatalf("block %d holds %d timed slots, want 1", b, hits)
		}
	}
	for o, n := range offsets {
		if want := blocks / SampleEvery; n < want*8/10 || n > want*12/10 {
			t.Errorf("offset %d timed in %d of %d blocks, want about %d", o, n, blocks, want)
		}
	}
}

// TestSampledQuantilesUnbiased feeds synthetic bimodal latency streams
// through the sampling rule and checks that the sample's p50, p99 and
// slow share match the full stream's. The period-SampleEvery stream is the
// adversarial one: a slow call every SampleEvery-th operation lines up
// with a count%SampleEvery rule, whose sample then holds only slow calls
// (or none) — shown here so the test proves the pattern can alias.
func TestSampledQuantilesUnbiased(t *testing.T) {
	const (
		ops  = 1 << 17
		fast = 300
		slow = 90_000
	)
	streams := []struct {
		name   string
		isSlow func(i uint64) bool
	}{
		{"period-N", func(i uint64) bool { return i%SampleEvery == 0 }},
		{"period-N-shifted", func(i uint64) bool { return i%SampleEvery == 5 }},
		{"period-2N", func(i uint64) bool { return i%(2*SampleEvery) == 3 }},
		{"period-13", func(i uint64) bool { return i%13 == 0 }},
		{"scattered-10pct", func(i uint64) bool { return (i*0x9E3779B97F4A7C15)>>32%10 == 0 }},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			var full, sample, naive Histogram
			var slowFull, slowSample uint64
			for i := uint64(0); i < ops; i++ {
				lat := uint64(fast)
				if st.isSlow(i) {
					lat = slow
					slowFull++
				}
				full.Observe(lat)
				if sampled(i) {
					sample.Observe(lat)
					if lat == slow {
						slowSample++
					}
				}
				if i%SampleEvery == 0 {
					naive.Observe(lat)
				}
			}
			fs, ss := full.Snapshot(), sample.Snapshot()
			if ss.Count != ops/SampleEvery {
				t.Fatalf("sample holds %d of %d observations, want %d", ss.Count, ops, ops/SampleEvery)
			}
			for _, q := range []float64{0.50, 0.99} {
				if f, s := fs.Quantile(q), ss.Quantile(q); bits.Len64(f) != bits.Len64(s) {
					t.Errorf("q%.2f: full stream %d, sample %d — different buckets", q, f, s)
				}
			}
			fullShare := float64(slowFull) / ops
			sampleShare := float64(slowSample) / float64(ss.Count)
			if d := sampleShare - fullShare; d < -0.01 || d > 0.01 {
				t.Errorf("slow share: full stream %.4f, sample %.4f", fullShare, sampleShare)
			}
			if st.name == "period-N" {
				if p50 := naive.Quantile(0.5); p50 != slow {
					t.Errorf("count%%N sample p50 = %d: the period-N stream no longer aliases with the naive rule, so this test proves nothing", p50)
				}
			}
		})
	}
}

// TestDriftFeedArming pins the lock-free gate in front of the drift
// detector: it is open exactly while a detector is attached and has not
// tripped, through attach, trip, re-arm and detach.
func TestDriftFeedArming(t *testing.T) {
	m := NewMetrics("arm")
	if m.driftArmed.Load() {
		t.Fatal("armed with no detector")
	}
	m.RecordSearch(1, 1) // no detector: must not touch the mutex path or panic
	m.ReArmDrift()
	if m.driftArmed.Load() {
		t.Fatal("ReArmDrift armed a bundle with no detector")
	}
	det := &fixedDetector{left: 2}
	m.SetDriftDetector(det, nil)
	if !m.driftArmed.Load() {
		t.Fatal("not armed after SetDriftDetector")
	}
	m.RecordSearch(1, 1)
	m.RecordSearch(1, 1) // trips
	if m.driftArmed.Load() || !m.DriftTripped() {
		t.Fatalf("after trip: armed=%v tripped=%v", m.driftArmed.Load(), m.DriftTripped())
	}
	m.RecordSearch(1, 1)
	if det.left != 0 {
		t.Fatalf("latched feed still reached the detector (left=%d)", det.left)
	}
	m.ReArmDrift()
	if !m.driftArmed.Load() {
		t.Fatal("not armed after ReArmDrift")
	}
	m.SetDriftDetector(nil, nil)
	if m.driftArmed.Load() {
		t.Fatal("armed after detach")
	}
}

// TestShardHintSeparatesNeighbouringStacks pins what striping rests on:
// two goroutines at the same call depth, on stacks one stack size apart
// (2 KB fresh stacks up to 64 KB grown ones), almost never share a stripe.
func TestShardHintSeparatesNeighbouringStacks(t *testing.T) {
	const arena, depth = uintptr(0xc000000000), uintptr(0x71f)
	for stride := uintptr(2 << 10); stride <= 64<<10; stride *= 2 {
		same, pairs := 0, 0
		for base := arena; base < arena+1<<24; base += stride {
			pairs++
			if StripeHint(base+depth) == StripeHint(base+stride+depth) {
				same++
			}
		}
		if same*20 > pairs {
			t.Errorf("stacks %d KB apart share a stripe in %d of %d cases, want under 5%%", stride>>10, same, pairs)
		}
	}
}
