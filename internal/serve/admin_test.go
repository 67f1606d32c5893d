package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/serve"
	"github.com/lix-go/lix/internal/trace"
	"github.com/lix-go/lix/internal/wire"
)

func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminPlaneUnderTraffic serves every admin endpoint group —
// /metrics, /healthz, /readyz, /events, /topk, /debug/pprof/* — while
// wire traffic runs against the same stack, with full span sampling and
// hot-key telemetry on. Run under -race in CI, this is the acceptance
// pin that the admin plane reads the live data-plane state safely.
func TestAdminPlaneUnderTraffic(t *testing.T) {
	m := lix.NewMetrics("admin-e2e")
	stack, err := lix.NewStack(nil, lix.StackConfig{
		Shards:  4,
		Metrics: m,
		Trace:   &lix.TraceOptions{SampleRate: 1, SlowThreshold: time.Nanosecond, TopK: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{
		Metrics:    m,
		Tracer:     stack.Tracer(),
		CloseStore: true,
	})
	defer srv.Shutdown()

	admin := httptest.NewServer(serve.NewAdminHandler(serve.AdminConfig{
		Metrics: []*obs.Metrics{m},
		Tracer:  stack.Tracer(),
		Ready:   func() bool { return !srv.Draining() },
	}))
	defer admin.Close()

	// Background wire traffic: pipelined writes and skewed reads so the
	// hot-key sketch and every histogram family have data while the admin
	// endpoints are scraped concurrently.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
			if err != nil {
				t.Errorf("traffic dial: %v", err)
				return
			}
			defer c.Close()
			reqs := make([]wire.Msg, 0, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reqs = reqs[:0]
				for d := 0; d < 8; d++ {
					k := core.Key(w*1000 + i%50)
					reqs = append(reqs,
						wire.Msg{Op: wire.OpSet, Key: k, Val: core.Value(i)},
						wire.Msg{Op: wire.OpGet, Key: 42}) // everyone hammers key 42
				}
				if _, err := c.Pipeline(reqs, nil); err != nil {
					t.Errorf("traffic pipeline: %v", err)
					return
				}
			}
		}(w)
	}
	// Let some traffic land before scraping.
	time.Sleep(50 * time.Millisecond)

	// Every endpoint group, scraped concurrently with the traffic above.
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for i := 0; i < 5; i++ {
			adminGet(t, admin.URL, "/metrics")
			adminGet(t, admin.URL, "/topk")
		}
	}()

	if code, body := adminGet(t, admin.URL, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code=%d body=%q", code, body)
	}
	if code, body := adminGet(t, admin.URL, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: code=%d body=%q", code, body)
	}
	if code, body := adminGet(t, admin.URL, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz: code=%d body=%q", code, body)
	}

	code, body := adminGet(t, admin.URL, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code=%d", code)
	}
	for _, want := range []string{
		"lix_lookups_total{index=\"admin-e2e\"}",
		"lix_decode_ns", "lix_dispatch_ns", "lix_shard_ns",
		"lix_topk_count{key=\"42\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = adminGet(t, admin.URL, "/events?n=8")
	if code != 200 {
		t.Fatalf("/events: code=%d", code)
	}
	var evs []obs.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Errorf("/events not JSON: %v\n%s", err, body)
	}

	code, body = adminGet(t, admin.URL, "/topk?n=4")
	if code != 200 {
		t.Fatalf("/topk: code=%d", code)
	}
	var top []trace.KeyCount
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatalf("/topk not JSON: %v\n%s", err, body)
	}
	if len(top) == 0 || len(top) > 4 {
		t.Fatalf("/topk?n=4 returned %d entries", len(top))
	}
	if top[0].Key != 42 {
		t.Errorf("hottest key = %d, want 42 (counts: %+v)", top[0].Key, top)
	}

	if code, body := adminGet(t, admin.URL, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
	if code, _ := adminGet(t, admin.URL, "/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Errorf("/debug/pprof/goroutine: code=%d", code)
	}

	if code, _ := adminGet(t, admin.URL, "/nonexistent"); code != 404 {
		t.Errorf("unknown path: code=%d, want 404", code)
	}

	scrape.Wait()
	close(stop)
	wg.Wait()

	// Traffic with SampleRate=1 must have produced sampled spans.
	if got := stack.Tracer().Sampled(); got == 0 {
		t.Error("no spans sampled despite SampleRate=1")
	}
}

// TestAdminReadyzFlipsDuringDrain pins the readiness contract: /readyz
// answers 200 before Shutdown, flips to 503 the moment the drain begins
// (while an in-flight pipelined group is still being served), and the
// in-flight group's replies still reach the client.
func TestAdminReadyzFlipsDuringDrain(t *testing.T) {
	stack, err := lix.NewStack([]lix.KV{{Key: 1, Value: 11}}, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateStore{Store: stack, entered: make(chan struct{}), release: make(chan struct{})}
	srv := startServer(t, gate, serve.Config{DrainTimeout: 10 * time.Second})

	admin := httptest.NewServer(serve.NewAdminHandler(serve.AdminConfig{
		Ready: func() bool { return !srv.Draining() },
	}))
	defer admin.Close()

	if code, _ := adminGet(t, admin.URL, "/readyz"); code != 200 {
		t.Fatalf("/readyz before drain: code=%d, want 200", code)
	}

	// Park a pipelined group inside the store.
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := wire.NewWriter(conn, 0)
	w.Write(&wire.Msg{Op: wire.OpSet, Key: 3, Val: 33})
	w.Write(&wire.Msg{Op: wire.OpGet, Key: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown() }()

	// Draining flips as Shutdown begins; poll briefly to avoid racing the
	// goroutine's first instruction.
	flipped := false
	for i := 0; i < 100; i++ {
		if code, body := adminGet(t, admin.URL, "/readyz"); code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "draining") {
				t.Errorf("/readyz 503 body = %q, want draining", body)
			}
			flipped = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !flipped {
		t.Error("/readyz never flipped to 503 during drain")
	}
	// Liveness stays green throughout the drain.
	if code, _ := adminGet(t, admin.URL, "/healthz"); code != 200 {
		t.Errorf("/healthz during drain: code=%d, want 200", code)
	}

	// The in-flight group still completes and its replies arrive.
	close(gate.release)
	r := wire.NewReader(conn, 0)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rep, err := r.Read(); err != nil || rep.Op != wire.ROK {
		t.Fatalf("in-flight SET reply: %+v, %v", rep, err)
	}
	if rep, err := r.Read(); err != nil || rep.Op != wire.RValue || rep.Val != 11 {
		t.Fatalf("in-flight GET reply: %+v, %v", rep, err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Still 503 after the drain completes.
	if code, _ := adminGet(t, admin.URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain: code=%d, want 503", code)
	}
}

// TestWriteErrorsReachTheClient is the whole-stack pin for the write
// error path: a durable stack (FsyncAlways) behind a real server loses
// its WAL file descriptors — Crash closes them under the live store, the
// nearest thing to a dead disk — and from then on no write may be
// answered OK. A solo SET, a pipelined burst of SETs, an MSET and a DEL
// each come back as an ERR frame (a *wire.ServerError through the typed
// client calls), the connection survives and still answers GETs from
// memory, the Errors counter grows by one per failed frame, and /readyz
// flips from 200 to 503 on the latched store error.
func TestWriteErrorsReachTheClient(t *testing.T) {
	m := obs.NewMetrics("write-errors")
	stack, err := lix.NewStack([]lix.KV{{Key: 1, Value: 11}}, lix.StackConfig{
		Dir: t.TempDir(), Shards: 4, Fsync: lix.FsyncAlways, CheckpointEvery: -1, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{Metrics: m, CloseStore: true})
	defer srv.Shutdown()
	admin := httptest.NewServer(serve.NewAdminHandler(serve.AdminConfig{
		Ready: func() bool { return !srv.Draining() && stack.Err() == nil },
	}))
	defer admin.Close()
	c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set(5, 50); err != nil {
		t.Fatalf("SET on the healthy store: %v", err)
	}
	if code, _ := adminGet(t, admin.URL, "/readyz"); code != 200 {
		t.Fatalf("/readyz on the healthy store: code=%d, want 200", code)
	}

	if err := stack.Durable().Crash(); err != nil {
		t.Fatal(err)
	}
	errorsBefore := m.Errors.Load()
	wantServerError := func(what string, err error) {
		t.Helper()
		var se *wire.ServerError
		if !errors.As(err, &se) {
			t.Errorf("%s on the failed store returned %v, want a *wire.ServerError", what, err)
		}
	}

	wantServerError("solo SET", c.Set(6, 60))
	const burst = 16
	reqs := make([]wire.Msg, burst)
	for i := range reqs {
		reqs[i] = wire.Msg{Op: wire.OpSet, Key: core.Key(100 + i), Val: 1}
	}
	reps, err := c.Pipeline(reqs, nil)
	if err != nil {
		t.Fatalf("pipelined SETs: connection failed: %v", err)
	}
	for i, rep := range reps {
		if rep.Op != wire.RErr || rep.Err == "" {
			t.Errorf("pipelined SET %d on the failed store answered %+v, want ERR", i, rep)
		}
	}
	wantServerError("MSET", c.MSet([]core.KV{{Key: 7, Value: 70}, {Key: 8, Value: 80}}))
	_, err = c.Del(1)
	wantServerError("DEL", err)

	// Same connection, still open: reads are served from memory, and see
	// exactly the acknowledged writes.
	for _, want := range []struct {
		k  core.Key
		v  core.Value
		ok bool
	}{{1, 11, true}, {5, 50, true}, {6, 0, false}, {100, 0, false}, {7, 0, false}} {
		if v, ok, err := c.Get(want.k); err != nil || ok != want.ok || v != want.v {
			t.Errorf("GET %d after the failed writes = (%d, %v, %v), want (%d, %v)", want.k, v, ok, err, want.v, want.ok)
		}
	}
	if got, want := m.Errors.Load()-errorsBefore, uint64(1+burst+1+1); got != want {
		t.Errorf("Errors grew by %d, want %d (one per failed frame)", got, want)
	}
	if code, _ := adminGet(t, admin.URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after a failed write: code=%d, want 503", code)
	}
}

// TestSlowRequestTimelineE2E is the acceptance pin for span visibility:
// a sampled pipelined write group against a durable sharded stack must
// leave an EvSlowRequest event whose detail carries the full stage
// timeline — decode, dispatch, shard, wal, fsync and the reply flush (the
// fsync is the commit's, in front of the group's replies inside its
// flush) — and /metrics' flushes counter must account for the delivery.
func TestSlowRequestTimelineE2E(t *testing.T) {
	m := lix.NewMetrics("slow-e2e")
	stack, err := lix.NewStack([]lix.KV{}, lix.StackConfig{
		Dir:     t.TempDir(),
		Shards:  2,
		Fsync:   lix.FsyncAlways,
		Metrics: m,
		Trace:   &lix.TraceOptions{SampleRate: 1, SlowThreshold: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{
		Metrics:    m,
		Tracer:     stack.Tracer(),
		CloseStore: true,
	})
	defer srv.Shutdown()

	c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One pipelined write group: decode (parse), dispatch (group), wal +
	// shard apply (durable insert) and fsync (the commit at the flush) all
	// get span time.
	reqs := make([]wire.Msg, 16)
	for i := range reqs {
		reqs[i] = wire.Msg{Op: wire.OpSet, Key: core.Key(i), Val: core.Value(i)}
	}
	reps, err := c.Pipeline(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps {
		if reps[i].Op != wire.ROK {
			t.Fatalf("SET %d: %+v", i, reps[i])
		}
	}

	// The server finishes a span after flushing its replies, so the client
	// can be here before the event is published; and the 16 frames may
	// reach the server as more than one group, each with its own span.
	// Wait for the events to account for all 16 requests.
	var groups []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		groups = groups[:0]
		ops := 0
		for _, ev := range m.Events.Recent(64) {
			if ev.Type != lix.EvSlowRequest {
				continue
			}
			var n int
			if _, err := fmt.Sscanf(ev.Detail, "ops=%d ", &n); err != nil {
				t.Fatalf("slow-request detail %q does not start with ops=N: %v", ev.Detail, err)
			}
			ops += n
			groups = append(groups, ev.Detail)
		}
		if ops == len(reqs) {
			break
		}
		if ops > len(reqs) || time.Now().After(deadline) {
			t.Fatalf("slow-request events cover %d of %d requests: %q", ops, len(reqs), groups)
		}
	}
	// Every group is a durable write group, so each timeline carries every
	// stage.
	for _, detail := range groups {
		for _, stage := range []string{"decode=", "dispatch=", "shard=", "wal=", "fsync=", "flush=", "total="} {
			if !strings.Contains(detail, stage) {
				t.Errorf("slow-request detail missing %q: %s", stage, detail)
			}
		}
		t.Logf("slow-request timeline: %s", detail)
	}
	// A sampled group is flushed inside its span, never coalesced away:
	// one flush per group here.
	if g, f := m.Groups.Load(), m.Flushes.Load(); int(g) != len(groups) || f != g {
		t.Errorf("groups = %d, flushes = %d, want %d of each", g, f, len(groups))
	}
}

// TestSampledDurableGroupCoversItsWallTime: the top-level stages of a
// sampled group over a durable stack — decode, dispatch and flush, which
// between them cover the store's shard, wal and fsync work, the commit in
// front of the replies included — account for at least 90 % of the group's
// wall time. A commit made outside the flush the span times, or a stage
// that stopped following the work, shows as a hole.
func TestSampledDurableGroupCoversItsWallTime(t *testing.T) {
	m := lix.NewMetrics("span-coverage")
	stack, err := lix.NewStack([]lix.KV{}, lix.StackConfig{
		Dir: t.TempDir(), Shards: 2, Fsync: lix.FsyncAlways, Metrics: m,
		Trace: &lix.TraceOptions{SampleRate: 1, SlowThreshold: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{Metrics: m, Tracer: stack.Tracer(), CloseStore: true})
	defer srv.Shutdown()
	c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reqs := make([]wire.Msg, 64)
	for i := range reqs {
		k := core.Key(i % 24)
		switch i % 4 {
		case 0, 1:
			reqs[i] = wire.Msg{Op: wire.OpSet, Key: k, Val: core.Value(i)}
		case 2:
			reqs[i] = wire.Msg{Op: wire.OpGet, Key: k}
		default:
			reqs[i] = wire.Msg{Op: wire.OpDel, Key: k}
		}
	}
	for round := 0; round < 8; round++ {
		if _, err := c.Pipeline(reqs, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The last group's span is finished after its replies are sent.
	var events []lix.Event
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		events = events[:0]
		ops := 0
		for _, ev := range m.Events.Recent(256) {
			if ev.Type == lix.EvSlowRequest {
				var n int
				fmt.Sscanf(ev.Detail, "ops=%d ", &n)
				ops += n
				events = append(events, ev)
			}
		}
		if ops == 8*len(reqs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow-request events cover %d of %d requests", ops, 8*len(reqs))
		}
	}
	committed := 0
	for _, ev := range events {
		stage := map[string]time.Duration{}
		for _, field := range strings.Fields(ev.Detail)[1:] {
			name, val, _ := strings.Cut(field, "=")
			d, err := time.ParseDuration(val)
			if err != nil {
				t.Fatalf("timeline field %q of %q: %v", field, ev.Detail, err)
			}
			stage[name] = d
		}
		top := stage["decode"] + stage["dispatch"] + stage["flush"]
		if total := stage["total"]; top < total*9/10 || top > total {
			t.Errorf("decode+dispatch+flush = %v of total %v, want 90-100 %%: %s", top, total, ev.Detail)
		}
		if stage["fsync"] > stage["flush"] {
			t.Errorf("fsync time outside the flush: %s", ev.Detail)
		}
		if stage["fsync"] > 0 && stage["wal"] > 0 {
			committed++
		}
	}
	// TCP may cut a pipeline into more groups than rounds, some without a
	// write; most have one, and its commit must show.
	if committed < 8 {
		t.Errorf("%d of %d groups show a commit's wal and fsync time, want at least 8", committed, len(events))
	}
}

// TestWriteTopKPrometheus covers the exported topk renderer directly:
// no-op without telemetry, gauge families with telemetry on.
func TestWriteTopKPrometheus(t *testing.T) {
	var sb strings.Builder
	serve.WriteTopKPrometheus(&sb, nil) // nil tracer: no-op
	if sb.Len() != 0 {
		t.Errorf("nil tracer rendered %q", sb.String())
	}

	tr := trace.New(trace.Config{TopK: 8})
	serve.WriteTopKPrometheus(&sb, tr) // empty sketch: no-op
	if sb.Len() != 0 {
		t.Errorf("empty sketch rendered %q", sb.String())
	}
	for i := 0; i < 10; i++ {
		tr.TouchKey(7)
	}
	tr.TouchKey(9)
	serve.WriteTopKPrometheus(&sb, tr)
	out := sb.String()
	for _, want := range []string{
		"# TYPE lix_topk_count gauge",
		fmt.Sprintf("lix_topk_count{key=\"7\"} %d", 10),
		"# TYPE lix_topk_err gauge",
		"lix_topk_err{key=\"9\"} 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("topk exposition missing %q:\n%s", want, out)
		}
	}
}
