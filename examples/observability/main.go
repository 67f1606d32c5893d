// Command observability demonstrates the lix metrics and event-hook layer:
// wrapping an index so every operation records latency and cardinality
// histograms, routing the shared last-mile search instrumentation (probe
// counts, error-window widths) into the same bundle, watching structural
// events (splits, flushes, retrains), closing the drift->retrain loop with
// a detector fed by the live correction-cost stream, and rendering
// everything as a snapshot and as Prometheus text.
package main

import (
	"fmt"
	"os"

	"github.com/lix-go/lix"
)

func main() {
	// --- 1. Observe a static index -------------------------------------
	recs := make([]lix.KV, 200_000)
	for i := range recs {
		recs[i] = lix.KV{Key: lix.Key(i * 13), Value: lix.Value(i)}
	}
	pgm, err := lix.NewPGM(recs, 0)
	if err != nil {
		panic(err)
	}
	m := lix.NewMetrics("pgm")
	idx := lix.Observe(pgm, m)

	// Route probe counts and error-window widths from the shared bounded
	// search helpers into the same bundle.
	lix.EnableSearchMetrics(m)
	defer lix.DisableSearchMetrics()

	for i := 0; i < 50_000; i++ {
		idx.Get(lix.Key((i * 31) % (13 * len(recs))))
	}
	idx.Range(1300, 2600, func(lix.Key, lix.Value) bool { return true })

	// Counters are exact on every call, so rates come from them. The
	// point-operation latency histograms (get_ns, insert_ns, delete_ns)
	// time one call in lix.SampleEvery: their quantiles are unbiased, and
	// their count is the number of samples, not of operations.
	s := m.Snapshot()
	fmt.Printf("lookups=%d hits=%d\n", s.Counters["lookups"], s.Counters["hits"])
	fmt.Printf("get latency  p50=%dns p99=%dns (from %d samples, 1 call in %d)\n",
		s.Histograms["get_ns"].P50, s.Histograms["get_ns"].P99,
		s.Histograms["get_ns"].Count, lix.SampleEvery)
	fmt.Printf("search cost  probes p50=%d  window p90=%d\n",
		s.Histograms["search_probes"].P50, s.Histograms["search_window"].P90)

	// --- 2. Structural events from a mutable index ---------------------
	am := lix.NewMetrics("alex")
	base, err := lix.BuildMutable1D("alex")
	if err != nil {
		panic(err)
	}
	alex := lix.ObserveMutable(base, am)
	for i := 0; i < 100_000; i++ {
		alex.Insert(lix.Key((i*2654435761)%1_000_000), lix.Value(i))
	}
	fmt.Printf("alex splits/expands=%d retrains=%d (insert p99=%dns)\n",
		am.Events.Count(lix.EvNodeSplit), am.Events.Count(lix.EvRetrain),
		am.Snapshot().Histograms["insert_ns"].P99)
	for _, e := range am.Events.Recent(3) {
		fmt.Println("  recent event:", e)
	}

	// --- 3. Drift -> retrain closed loop -------------------------------
	// A detector consumes the live error-window stream; when the workload
	// shifts and windows widen, it trips and we rebuild the index.
	dm := lix.NewMetrics("drifting")
	det, err := lix.NewDriftEWMA(4.0, 4.0, 0.05)
	if err != nil {
		panic(err)
	}
	retrains := 0
	dm.SetDriftDetector(det, func() { retrains++ })

	// A coarse index (wide epsilon) stands in for a model gone stale:
	// its error windows are far wider than the detector's baseline.
	stale, err := lix.NewPGM(recs, 256)
	if err != nil {
		panic(err)
	}
	widx := lix.Observe(stale, dm)
	lix.EnableSearchMetrics(dm)
	for i := 0; i < 2_000 && !dm.DriftTripped(); i++ {
		widx.Get(recs[i%len(recs)].Key)
	}
	if dm.DriftTripped() {
		// The retrain: rebuild with a tight epsilon, re-arm the detector.
		fresh, err := lix.NewPGM(recs, 16)
		if err != nil {
			panic(err)
		}
		widx = lix.Observe(fresh, dm)
		det.Reset(4.0)
		dm.ReArmDrift()
	}
	widx.Get(recs[0].Key)
	lix.DisableSearchMetrics()
	fmt.Printf("drift trips=%d retrains=%d\n", dm.Events.Count(lix.EvDriftTrip), retrains)

	// --- 4. Prometheus text exposition ---------------------------------
	fmt.Println("--- prometheus (excerpt) ---")
	if err := lix.WriteMetricsPrometheus(os.Stdout, m); err != nil {
		panic(err)
	}
}
