// lixserve serves a lix stack over TCP.
//
// It assembles a NewStack engine (backend kind, optional sharding,
// optional durability) behind the pipelined wire protocol of DESIGN.md
// §7: length-prefixed binary frames carrying GET/SET/DEL/MGET/MSET/SCAN,
// with pipelined bursts coalesced into single batch calls — one shard
// fan-out per read burst, one WAL frame group per write burst.
//
//	lixserve -addr :7070 -e pgm -shards 8 -n 1000000
//	lixserve -addr :7070 -dir /var/lib/lix -fsync always
//
// With -admin-addr set, an out-of-band HTTP admin plane serves
// /metrics (Prometheus), /healthz, /readyz (503 while draining, and
// once a durable store has failed a write), /events, /topk and
// /debug/pprof/* alongside the data plane.
// Request tracing (-trace-sample, -trace-slow, -topk) samples request
// groups into per-stage spans feeding the slow-request event log and
// the hot-key sketch; disabled sampling costs one atomic load per group.
//
// SIGINT/SIGTERM trigger a graceful drain: /readyz flips to 503, the
// listener closes, in-flight pipelined groups complete and flush, then
// connections and the stack close. With -metrics-out the metrics
// snapshot is written in Prometheus text format on exit — and, with
// -metrics-interval, periodically during the run via atomic replacement.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	lix "github.com/lix-go/lix"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		engine     = flag.String("e", "btree", "backend index kind (see lixtaxonomy)")
		shards     = flag.Int("shards", 0, "shard count (0 = unsharded)")
		dir        = flag.String("dir", "", "durable directory (empty = in-memory)")
		fsyncMode  = flag.String("fsync", "always", "WAL durability: always|interval|never (with -dir)")
		n          = flag.Int("n", 0, "preload n synthetic records (ignored when -dir has data)")
		seed       = flag.Int64("seed", 42, "preload key seed")
		maxConns   = flag.Int("max-conns", 0, "connection limit (0 = default)")
		maxFrame   = flag.Int("max-frame", 0, "max frame bytes (0 = default 1MiB)")
		drainWait  = flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget")
		metricsOut = flag.String("metrics-out", "", "write a Prometheus metrics snapshot here on exit")
		metricsInt = flag.Duration("metrics-interval", 0, "also rewrite -metrics-out periodically (0 = exit only)")
		adminAddr  = flag.String("admin-addr", "", "serve the HTTP admin plane (/metrics, /healthz, /readyz, /events, /topk, /debug/pprof) here")
		traceRate  = flag.Float64("trace-sample", 0.01, "fraction of request groups traced into per-stage spans [0,1]")
		traceSlow  = flag.Duration("trace-slow", 50*time.Millisecond, "log sampled groups at least this slow to the event log (0 = off)")
		topK       = flag.Int("topk", 64, "hot-key sketch capacity for /topk (0 = off)")
		quiet      = flag.Bool("q", false, "suppress startup/shutdown log lines")
	)
	flag.Parse()

	logf := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "lixserve: "+format+"\n", args...)
		os.Exit(1)
	}

	fsync, err := lix.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		fail("%v", err)
	}

	var recs []lix.KV
	if *n > 0 && *dir == "" {
		recs = make([]lix.KV, *n)
		r := rand.New(rand.NewSource(*seed))
		cur := lix.Key(0)
		for i := range recs {
			cur += lix.Key(r.Intn(16) + 1)
			recs[i] = lix.KV{Key: cur, Value: lix.Value(i)}
		}
	}

	metrics := lix.NewMetrics("lixserve")
	stack, err := lix.NewStack(recs, lix.StackConfig{
		Kind:    *engine,
		Shards:  *shards,
		Dir:     *dir,
		Fsync:   fsync,
		Metrics: metrics,
		Trace: &lix.TraceOptions{
			SampleRate:    *traceRate,
			SlowThreshold: *traceSlow,
			TopK:          *topK,
		},
	})
	if err != nil {
		fail("stack: %v", err)
	}

	srv := lix.NewServer(stack, lix.ServeConfig{
		Addr:         *addr,
		MaxConns:     *maxConns,
		MaxFrame:     *maxFrame,
		DrainTimeout: *drainWait,
		Metrics:      metrics,
		Tracer:       stack.Tracer(),
		CloseStore:   true,
	})
	if err := srv.Start(); err != nil {
		fail("listen: %v", err)
	}
	logf("lixserve: serving %s (kind=%s shards=%d durable=%v) on %s",
		plural(stack.Len(), "record"), *engine, *shards, *dir != "", srv.Addr())

	// Admin plane: out-of-band HTTP on its own listener so operability
	// survives data-plane saturation.
	var admin *http.Server
	if *adminAddr != "" {
		admin = &http.Server{
			Addr: *adminAddr,
			Handler: lix.NewAdminHandler(lix.AdminConfig{
				Metrics: []*lix.Metrics{metrics},
				Tracer:  stack.Tracer(),
				Ready:   func() bool { return !srv.Draining() && stack.Err() == nil },
			}),
		}
		go func() {
			if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "lixserve: admin: %v\n", err)
			}
		}()
		logf("lixserve: admin plane on %s", *adminAddr)
	}

	// Metrics snapshot file: periodic with -metrics-interval, final on
	// exit either way.
	var flusher *lix.MetricsFlusher
	if *metricsOut != "" {
		flusher = lix.NewMetricsFlusher(*metricsOut, *metricsInt, metrics)
		flusher.Start()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logf("lixserve: %s, draining...", s)
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "lixserve: drain: %v\n", err)
	}
	if admin != nil {
		admin.Close()
	}

	if flusher != nil {
		if err := flusher.Stop(); err != nil {
			fail("metrics-out: %v", err)
		}
		logf("lixserve: metrics snapshot written to %s", *metricsOut)
	}
	logf("lixserve: bye")
}

func plural(n int, noun string) string {
	if n == 1 {
		return fmt.Sprintf("%d %s", n, noun)
	}
	return fmt.Sprintf("%d %ss", n, noun)
}
