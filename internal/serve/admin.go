package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/trace"
)

// AdminConfig assembles the live admin plane: the out-of-band HTTP
// surface (`lixserve -admin-addr`) that turns a running server from a
// black box into something operable — Prometheus scrapes, readiness for
// load balancers, the event log and hot-key sketch as JSON, and the
// stdlib pprof profilers.
type AdminConfig struct {
	// Metrics are the bundles /metrics renders (Prometheus text format,
	// one index label per bundle; names must be unique).
	Metrics []*obs.Metrics
	// Tracer, when set with hot-key telemetry enabled, feeds /topk and
	// the lix_topk_count family appended to /metrics.
	Tracer *trace.Tracer
	// Ready reports readiness for /readyz; nil means always ready.
	// Wire it to the serving front-end and the store as func() bool {
	// return !srv.Draining() && stack.Err() == nil } so a load balancer
	// stops sending traffic the moment Shutdown begins, while in-flight
	// groups still complete, and the moment a write fails, after which
	// the store answers every write with an error.
	Ready func() bool
	// EventLog backs /events. Defaults to the first Metrics bundle's
	// log when nil.
	EventLog *obs.EventLog
}

// NewAdminHandler returns the admin-plane HTTP handler:
//
//	/            endpoint index (text)
//	/metrics     Prometheus text exposition of every bundle + topk
//	/healthz     200 while the process is up (liveness)
//	/readyz      200 ready / 503 draining or store failed (readiness)
//	/events      recent event-log tail as JSON (?n=, newest last)
//	/topk        hot-key sketch as JSON (?n=, hottest first)
//	/debug/pprof/*  stdlib profilers (cpu profile, heap, goroutine, ...)
//
// The handler is safe to serve concurrently with traffic; every
// endpoint reads the live atomics/rings the data plane writes.
func NewAdminHandler(cfg AdminConfig) http.Handler {
	events := cfg.EventLog
	if events == nil && len(cfg.Metrics) > 0 {
		events = &cfg.Metrics[0].Events
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "lix admin plane\n\n"+
			"/metrics      Prometheus exposition\n"+
			"/healthz      liveness\n"+
			"/readyz       readiness (503 while draining or after a failed write)\n"+
			"/events?n=64  recent event log (JSON)\n"+
			"/topk?n=32    hot keys (JSON)\n"+
			"/debug/pprof  profilers\n")
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheusAll(w, cfg.Metrics...); err != nil {
			// Headers are gone; all we can do is cut the body so the
			// scraper sees a broken exposition rather than a silent gap.
			fmt.Fprintf(w, "# render error: %v\n", err)
			return
		}
		writeTopKPrometheus(w, cfg.Tracer)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Ready != nil && !cfg.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready: draining or store failed")
			return
		}
		fmt.Fprintln(w, "ready")
	})

	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n := queryN(r, 64)
		var evs []obs.Event
		if events != nil {
			evs = events.Recent(n)
		}
		if evs == nil {
			evs = []obs.Event{}
		}
		writeJSON(w, evs)
	})

	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		n := queryN(r, 32)
		top := cfg.Tracer.TopKeys(n)
		if top == nil {
			top = []trace.KeyCount{}
		}
		writeJSON(w, top)
	})

	// The stdlib profilers, on this mux rather than http.DefaultServeMux
	// so importing net/http/pprof's side effects is not relied upon.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// WriteTopKPrometheus renders the tracer's hot-key sketch as a
// lix_topk_count gauge family (one series per tracked key, hottest
// first, with the SpaceSaving error bound as a companion family). No-op
// without hot-key telemetry.
func WriteTopKPrometheus(w interface{ Write([]byte) (int, error) }, tr *trace.Tracer) {
	writeTopKPrometheus(w, tr)
}

func writeTopKPrometheus(w interface{ Write([]byte) (int, error) }, tr *trace.Tracer) {
	if !tr.HotKeys() {
		return
	}
	top := tr.TopKeys(64)
	if len(top) == 0 {
		return
	}
	fmt.Fprintf(w, "# TYPE lix_topk_count gauge\n")
	for _, e := range top {
		fmt.Fprintf(w, "lix_topk_count{key=\"%d\"} %d\n", e.Key, e.Count)
	}
	fmt.Fprintf(w, "# TYPE lix_topk_err gauge\n")
	for _, e := range top {
		fmt.Fprintf(w, "lix_topk_err{key=\"%d\"} %d\n", e.Key, e.Err)
	}
}

func queryN(r *http.Request, def int) int {
	q := r.URL.Query().Get("n")
	if q == "" {
		return def
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return def
	}
	return n
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
