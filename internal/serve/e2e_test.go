package serve_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/conform"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/serve"
	"github.com/lix-go/lix/internal/wire"
)

// startServer boots a server over store on an ephemeral port.
func startServer(t *testing.T, store serve.Store, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.ErrorLog == nil {
		cfg.ErrorLog = io.Discard
	}
	s := serve.New(store, cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
}

// ---------------------------------------------------------------------------
// conform-backed differential e2e: the server IS an index
// ---------------------------------------------------------------------------

// netIndex adapts a live lixserve into conform.MutableIndex with the batch
// capability the stress tier's core.Apply detects (a batch is its ops as
// GET/SET/DEL frames in one pipelined group): every operation is a wire
// round-trip, concurrent goroutines draw connections from a pool, and
// Close drains the server.
// Running conform.CheckStress over it reuses the whole history-vs-oracle
// machinery — randomized concurrent writers with disjoint key sets,
// point/batch/range readers, sequential-oracle quiesce comparison and
// greedy shrinking — against the real network path.
type netIndex struct {
	addr string
	srv  *serve.Server

	mu   sync.Mutex
	free []*wire.Client
	all  []*wire.Client
}

func newNetIndex(srv *serve.Server) *netIndex {
	return &netIndex{addr: srv.Addr().String(), srv: srv}
}

func (n *netIndex) client() *wire.Client {
	n.mu.Lock()
	if k := len(n.free); k > 0 {
		c := n.free[k-1]
		n.free = n.free[:k-1]
		n.mu.Unlock()
		return c
	}
	n.mu.Unlock()
	c, err := wire.DialTimeout(n.addr, 10*time.Second)
	if err != nil {
		panic(fmt.Sprintf("e2e: dial %s: %v", n.addr, err))
	}
	n.mu.Lock()
	n.all = append(n.all, c)
	n.mu.Unlock()
	return c
}

func (n *netIndex) put(c *wire.Client) {
	n.mu.Lock()
	n.free = append(n.free, c)
	n.mu.Unlock()
}

func (n *netIndex) Get(k core.Key) (core.Value, bool) {
	c := n.client()
	defer n.put(c)
	v, ok, err := c.Get(k)
	if err != nil {
		panic(fmt.Sprintf("e2e: GET: %v", err))
	}
	return v, ok
}

func (n *netIndex) Insert(k core.Key, v core.Value) {
	c := n.client()
	defer n.put(c)
	if err := c.Set(k, v); err != nil {
		panic(fmt.Sprintf("e2e: SET: %v", err))
	}
}

func (n *netIndex) Delete(k core.Key) bool {
	c := n.client()
	defer n.put(c)
	ok, err := c.Del(k)
	if err != nil {
		panic(fmt.Sprintf("e2e: DEL: %v", err))
	}
	return ok
}

var _ core.Applier = (*netIndex)(nil)

// frameOf is the request frame each kind of op is sent as.
var frameOf = [...]wire.Op{core.OpGet: wire.OpGet, core.OpPut: wire.OpSet, core.OpDel: wire.OpDel}

// Apply sends ops as one pipelined group of GET, SET and DEL frames and
// reads the answers off the replies. The server commits before it
// replies, so there is nothing left for a Commit.
func (n *netIndex) Apply(ops []core.Op, vals []core.Value, oks []bool, _ *core.Span) error {
	reqs := make([]wire.Msg, len(ops))
	for i, op := range ops {
		reqs[i] = wire.Msg{Op: frameOf[op.Kind], Key: op.Key, Val: op.Val}
	}
	c := n.client()
	defer n.put(c)
	reps, err := c.Pipeline(reqs, nil)
	if err != nil {
		panic(fmt.Sprintf("e2e: pipeline of %d ops: %v", len(ops), err))
	}
	for i, rep := range reps {
		switch {
		case rep.Op == wire.RErr:
			return &wire.ServerError{Msg: rep.Err}
		case ops[i].Kind == core.OpGet:
			vals[i], oks[i] = rep.Val, rep.Op == wire.RValue
		case ops[i].Kind == core.OpDel:
			oks[i] = rep.Ok
		}
	}
	return nil
}

func (n *netIndex) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int {
	c := n.client()
	defer n.put(c)
	recs, err := c.Scan(lo, hi, 0)
	if err != nil {
		panic(fmt.Sprintf("e2e: SCAN: %v", err))
	}
	n.put(c) // release before user fn; double-put is fine, pool is a stack
	visited := 0
	for _, r := range recs {
		visited++
		if !fn(r.Key, r.Value) {
			break
		}
	}
	return visited
}

func (n *netIndex) Len() int {
	c := n.client()
	defer n.put(c)
	recs, err := c.Scan(0, ^core.Key(0), 0)
	if err != nil {
		panic(fmt.Sprintf("e2e: SCAN(len): %v", err))
	}
	return len(recs)
}

func (n *netIndex) Stats() core.Stats {
	return core.Stats{Name: "lixserve-client", Count: n.Len()}
}

func (n *netIndex) Close() error {
	n.mu.Lock()
	for _, c := range n.all {
		c.Close()
	}
	n.all, n.free = nil, nil
	n.mu.Unlock()
	return n.srv.Shutdown()
}

// TestE2EConformStress runs the conformance suite's concurrent stress
// tier — randomized disjoint-writer histories, concurrent point/batch/
// range readers, quiesced state differentially compared against the
// sequential oracle — where every operation crosses the wire into a
// sharded stack. Run under -race in CI's server job.
func TestE2EConformStress(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e stress skipped in -short")
	}
	cfg := conform.DefaultStressConfig()
	cfg.KeysPerWriter = 48
	cfg.OpsPerWriter = 150
	cfg.ShrinkBudget = 8 // each candidate boots a fresh server; keep shrinking cheap
	err := conform.CheckStress(func(init []core.KV) (conform.MutableIndex, error) {
		stack, err := lix.NewStack(init, lix.StackConfig{Shards: 4})
		if err != nil {
			return nil, err
		}
		srv := serve.New(stack, serve.Config{ErrorLog: io.Discard, CloseStore: true})
		if err := srv.Start(); err != nil {
			return nil, err
		}
		return newNetIndex(srv), nil
	}, cfg)
	if err != nil {
		t.Fatalf("conform stress over the wire: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Pipelined mixed ops vs a sequential model
// ---------------------------------------------------------------------------

// TestE2EPipelinedMixedOps drives N concurrent connections, each issuing
// pipelined groups of mixed GET/SET/DEL/MGET/MSET/SCAN over its own key
// range, and checks every reply against a sequential in-process model:
// within a pipeline, each request must observe all earlier ones.
func TestE2EPipelinedMixedOps(t *testing.T) {
	stack, err := lix.NewStack(nil, lix.StackConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{CloseStore: true})
	defer srv.Shutdown()

	const (
		conns  = 6
		groups = 40
		depth  = 24
		span   = 200 // keys per connection
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for cid := 0; cid < conns; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			if err := runPipelinedConn(srv.Addr().String(), cid, groups, depth, span); err != nil {
				errs <- fmt.Errorf("conn %d: %w", cid, err)
			}
		}(cid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func runPipelinedConn(addr string, cid, groups, depth, span int) error {
	c, err := wire.DialTimeout(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	base := core.Key(cid+1) * 1_000_000
	key := func(i int) core.Key { return base + core.Key(i) }
	model := map[core.Key]core.Value{}
	r := rand.New(rand.NewSource(int64(cid) * 7))

	reqs := make([]wire.Msg, 0, depth)
	expected := make([]wire.Msg, 0, depth)
	var reps []wire.Msg
	for g := 0; g < groups; g++ {
		reqs, expected = reqs[:0], expected[:0]
		// Build one pipelined group, computing each expected reply from
		// the model state *at that point in the pipeline*.
		for d := 0; d < depth; d++ {
			switch r.Intn(10) {
			case 0, 1, 2: // SET
				k, v := key(r.Intn(span)), core.Value(g*depth+d)
				model[k] = v
				reqs = append(reqs, wire.Msg{Op: wire.OpSet, Key: k, Val: v})
				expected = append(expected, wire.Msg{Op: wire.ROK})
			case 3: // DEL
				k := key(r.Intn(span))
				_, had := model[k]
				delete(model, k)
				reqs = append(reqs, wire.Msg{Op: wire.OpDel, Key: k})
				expected = append(expected, wire.Msg{Op: wire.RBool, Ok: had})
			case 4, 5, 6: // GET
				k := key(r.Intn(span))
				v, ok := model[k]
				reqs = append(reqs, wire.Msg{Op: wire.OpGet, Key: k})
				if ok {
					expected = append(expected, wire.Msg{Op: wire.RValue, Val: v})
				} else {
					expected = append(expected, wire.Msg{Op: wire.RNil})
				}
			case 7: // MGET
				n := 1 + r.Intn(8)
				keys := make([]core.Key, n)
				vals := make([]core.Value, n)
				oks := make([]bool, n)
				for i := range keys {
					keys[i] = key(r.Intn(span))
					vals[i], oks[i] = model[keys[i]], false
					_, oks[i] = model[keys[i]]
				}
				reqs = append(reqs, wire.Msg{Op: wire.OpMGet, Keys: keys})
				expected = append(expected, wire.Msg{Op: wire.RValues, Vals: vals, Oks: oks})
			case 8: // MSET
				n := 1 + r.Intn(8)
				recs := make([]core.KV, n)
				for i := range recs {
					recs[i] = core.KV{Key: key(r.Intn(span)), Value: core.Value(1000*g + i)}
					model[recs[i].Key] = recs[i].Value
				}
				reqs = append(reqs, wire.Msg{Op: wire.OpMSet, Recs: recs})
				expected = append(expected, wire.Msg{Op: wire.ROK})
			default: // SCAN over a sub-interval of this connection's range
				loI := r.Intn(span)
				hiI := loI + r.Intn(span-loI)
				lo, hi := key(loI), key(hiI)
				var want []core.KV
				for k, v := range model {
					if k >= lo && k <= hi {
						want = append(want, core.KV{Key: k, Value: v})
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
				reqs = append(reqs, wire.Msg{Op: wire.OpScan, Lo: lo, Hi: hi})
				expected = append(expected, wire.Msg{Op: wire.RKVs, Recs: want})
			}
		}
		reps, err = c.Pipeline(reqs, reps)
		if err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
		for i := range reps {
			if err := replyMatches(reps[i], expected[i]); err != nil {
				return fmt.Errorf("group %d frame %d (%s): %w", g, i, reqs[i].Op, err)
			}
		}
	}

	// Final full-range scan against the model.
	recs, err := c.Scan(base, base+core.Key(span), 0)
	if err != nil {
		return err
	}
	if len(recs) != len(model) {
		return fmt.Errorf("final scan: %d records, model has %d", len(recs), len(model))
	}
	for _, rec := range recs {
		if v, ok := model[rec.Key]; !ok || v != rec.Value {
			return fmt.Errorf("final scan: (%d,%d) not in model", rec.Key, rec.Value)
		}
	}
	return nil
}

func replyMatches(got, want wire.Msg) error {
	if got.Op != want.Op {
		if got.Op == wire.RErr {
			return fmt.Errorf("server error %q (want %s)", got.Err, want.Op)
		}
		return fmt.Errorf("reply %s, want %s", got.Op, want.Op)
	}
	switch want.Op {
	case wire.RValue:
		if got.Val != want.Val {
			return fmt.Errorf("value %d, want %d", got.Val, want.Val)
		}
	case wire.RBool:
		if got.Ok != want.Ok {
			return fmt.Errorf("bool %v, want %v", got.Ok, want.Ok)
		}
	case wire.RValues:
		if len(got.Vals) != len(want.Vals) {
			return fmt.Errorf("%d values, want %d", len(got.Vals), len(want.Vals))
		}
		for i := range want.Vals {
			if got.Oks[i] != want.Oks[i] || (want.Oks[i] && got.Vals[i] != want.Vals[i]) {
				return fmt.Errorf("entry %d: (%d,%v), want (%d,%v)",
					i, got.Vals[i], got.Oks[i], want.Vals[i], want.Oks[i])
			}
		}
	case wire.RKVs:
		if len(got.Recs) != len(want.Recs) {
			return fmt.Errorf("%d records, want %d", len(got.Recs), len(want.Recs))
		}
		for i := range want.Recs {
			if got.Recs[i] != want.Recs[i] {
				return fmt.Errorf("record %d: %+v, want %+v", i, got.Recs[i], want.Recs[i])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

// gateStore wraps a Store so the test can hold a request group in flight:
// the first Get blocks until the gate is released.
type gateStore struct {
	serve.Store
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateStore) Get(k core.Key) (core.Value, bool) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.Store.Get(k)
}

// TestGracefulDrain pins the drain state machine: Shutdown stops
// accepting (late dials are refused), in-flight pipelined groups complete
// and their replies reach the client, idle connections are woken and
// closed, and the metrics record the EvDrain events.
func TestGracefulDrain(t *testing.T) {
	stack, err := lix.NewStack([]lix.KV{{Key: 1, Value: 11}, {Key: 2, Value: 22}}, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateStore{Store: stack, entered: make(chan struct{}), release: make(chan struct{})}
	m := lix.NewMetrics("drain-test")
	srv := startServer(t, gate, serve.Config{Metrics: m, DrainTimeout: 10 * time.Second})
	addr := srv.Addr().String()

	// An idle connection that must be woken and closed by the drain.
	idle, err := wire.DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Ping(); err != nil {
		t.Fatal(err)
	}

	// The in-flight group: SET(3) then GET(1); the GET parks inside the
	// store until released, holding the whole group in flight.
	conn, err := net.DialTimeout("tcp", addr, time.Second)
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

	// Late dial: the listener is already closed, so new connections are
	// refused while the in-flight group is still being served.
	lateRefused := false
	for i := 0; i < 50; i++ {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			lateRefused = true
			break
		}
		// A connection that sneaks into the accept backlog before the
		// listener closes must still be refused or dropped, not served.
		cl := wire.NewClient(c, time.Second)
		if err := cl.Ping(); err != nil {
			lateRefused = true
			cl.Close()
			break
		}
		cl.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !lateRefused {
		t.Error("late dials kept being served throughout the drain")
	}

	// Release the gate: the in-flight group must complete and both
	// replies must arrive even though the server is draining.
	close(gate.release)
	r := wire.NewReader(conn, 0)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rep1, err := r.Read()
	if err != nil || rep1.Op != wire.ROK {
		t.Fatalf("in-flight SET reply: %+v, %v", rep1, err)
	}
	rep2, err := r.Read()
	if err != nil || rep2.Op != wire.RValue || rep2.Val != 11 {
		t.Fatalf("in-flight GET reply: %+v, %v", rep2, err)
	}
	// The connection is closed once the group is flushed.
	if _, err := r.Read(); err == nil {
		t.Fatal("connection still open after drain")
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := m.Conns.Load(); got != 0 {
		t.Errorf("conns gauge after drain = %d, want 0", got)
	}
	if got := m.Events.Count(lix.EvDrain); got != 2 {
		t.Errorf("drain events = %d, want 2 (begin+complete)", got)
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Protocol edges over the real transport
// ---------------------------------------------------------------------------

// TestMalformedFrameCutsGroup pins the group-splitting rule: a pipelined
// group never spans a malformed frame. The valid prefix is served and
// answered, the malformed frame draws a final ERR, and the connection
// closes.
func TestMalformedFrameCutsGroup(t *testing.T) {
	stack, err := lix.NewStack(nil, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{CloseStore: true})
	defer srv.Shutdown()

	conn, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var stream []byte
	stream, _ = wire.AppendFrame(stream, &wire.Msg{Op: wire.OpSet, Key: 9, Val: 90}, 0)
	stream, _ = wire.AppendFrame(stream, &wire.Msg{Op: wire.OpGet, Key: 9}, 0)
	// A complete frame whose payload is garbage: length 2, unknown opcode.
	stream = append(stream, 0, 0, 0, 2, 0x7f, 0x00)
	// A valid frame AFTER the malformed one: must never be served.
	stream, _ = wire.AppendFrame(stream, &wire.Msg{Op: wire.OpSet, Key: 10, Val: 100}, 0)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := wire.NewReader(conn, 0)
	if rep, err := r.Read(); err != nil || rep.Op != wire.ROK {
		t.Fatalf("SET before malformed frame: %+v, %v", rep, err)
	}
	if rep, err := r.Read(); err != nil || rep.Op != wire.RValue || rep.Val != 90 {
		t.Fatalf("GET before malformed frame: %+v, %v", rep, err)
	}
	rep, err := r.Read()
	if err != nil || rep.Op != wire.RErr {
		t.Fatalf("malformed frame reply: %+v, %v", rep, err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("connection survived a malformed frame")
	}
	// The frame after the malformed one must not have been applied.
	if _, ok := stack.Get(10); ok {
		t.Fatal("request after a malformed frame was served")
	}
}

// TestOversizedFrameRefused checks the max-frame guard end-to-end.
func TestOversizedFrameRefused(t *testing.T) {
	stack, err := lix.NewStack(nil, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{MaxFrame: 256, CloseStore: true})
	defer srv.Shutdown()

	conn, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := wire.Msg{Op: wire.OpMSet, Recs: make([]core.KV, 64)} // 1029-byte payload
	frame, err := wire.AppendFrame(nil, &big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := wire.NewReader(conn, 0)
	rep, err := r.Read()
	if err != nil || rep.Op != wire.RErr {
		t.Fatalf("oversized frame reply: %+v, %v", rep, err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("connection survived an oversized frame")
	}
}

// TestConnectionLimit checks the MaxConns guard: the excess dial gets an
// ERR frame and is closed, the original connection keeps working.
func TestConnectionLimit(t *testing.T) {
	stack, err := lix.NewStack(nil, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := lix.NewMetrics("limit-test")
	srv := startServer(t, stack, serve.Config{MaxConns: 1, Metrics: m, CloseStore: true})
	defer srv.Shutdown()

	c1, err := wire.DialTimeout(srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil { // guarantees c1 is tracked
		t.Fatal(err)
	}
	c2, err := wire.DialTimeout(srv.Addr().String(), time.Second)
	if err != nil {
		t.Skip("kernel refused directly, limit untestable here")
	}
	defer c2.Close()
	err = c2.Ping()
	var se *wire.ServerError
	if !errors.As(err, &se) && !errors.Is(err, io.EOF) {
		t.Fatalf("over-limit ping error = %v, want ServerError or EOF", err)
	}
	if err := c1.Ping(); err != nil {
		t.Fatalf("in-limit connection broken by refusal: %v", err)
	}
	if got := m.Conns.Load(); got != 1 {
		t.Errorf("conns gauge = %d, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// Batch dispatch evidence: one fsync per pipelined write group
// ---------------------------------------------------------------------------

// TestPipelinedWritesFsyncAmortization is the acceptance-criteria pin:
// under -fsync=always, a pipelined write group dispatches through one
// Apply into ONE WAL frame group with ONE group-committed fsync —
// while the same writes issued unpipelined pay one fsync each.
func TestPipelinedWritesFsyncAmortization(t *testing.T) {
	dir := t.TempDir()
	stack, err := lix.NewStack([]lix.KV{}, lix.StackConfig{
		Dir:             dir,
		Fsync:           lix.FsyncAlways,
		CheckpointEvery: -1, // keep background checkpoints out of the fsync count
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{CloseStore: true})
	defer srv.Shutdown()
	c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One MSET frame of 256 records: necessarily one group, exactly one
	// batched WAL append, one fsync.
	recs := make([]core.KV, 256)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i), Value: core.Value(i)}
	}
	before := stack.Durable().Fsyncs()
	if err := c.MSet(recs); err != nil {
		t.Fatal(err)
	}
	if got := stack.Durable().Fsyncs() - before; got != 1 {
		t.Errorf("MSET(256) cost %d fsyncs, want 1", got)
	}

	// 64 SET frames pipelined in one flush: the server coalesces the run
	// into one Apply. TCP may occasionally split the delivery, so
	// allow a small handful of groups — the point is the two orders of
	// magnitude against unpipelined.
	reqs := make([]wire.Msg, 64)
	for i := range reqs {
		reqs[i] = wire.Msg{Op: wire.OpSet, Key: core.Key(1000 + i), Val: core.Value(i)}
	}
	before = stack.Durable().Fsyncs()
	reps, err := c.Pipeline(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps {
		if reps[i].Op != wire.ROK {
			t.Fatalf("pipelined SET %d: %+v", i, reps[i])
		}
	}
	pipelined := stack.Durable().Fsyncs() - before
	if pipelined > 4 {
		t.Errorf("64 pipelined SETs cost %d fsyncs, want ~1 (<=4)", pipelined)
	}

	// The same 64 writes unpipelined: one fsync each.
	before = stack.Durable().Fsyncs()
	for i := 0; i < 64; i++ {
		if err := c.Set(core.Key(2000+i), core.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	unpipelined := stack.Durable().Fsyncs() - before
	if unpipelined < 64 {
		t.Errorf("64 unpipelined SETs cost %d fsyncs, want >= 64", unpipelined)
	}
	t.Logf("fsyncs: mset(256)=1, pipelined(64)=%d, unpipelined(64)=%d", pipelined, unpipelined)
}

// ---------------------------------------------------------------------------
// Chunked SCAN replies at the max-frame boundary
// ---------------------------------------------------------------------------

// TestE2EChunkedScan pins the server half of the chunked SCAN contract at
// the exact frame boundary. With MaxFrame 165 a reply frame holds at most
// 10 records (payload 5 + 16·10 = 165), so a 25-record scan must stream
// as RKVsPart(10) RKVsPart(10) RKVs(5) — each frame exactly at or under
// the guard — while a 10-record scan stays a single unchunked RKVs and an
// 11-record one splits as RKVsPart(10) RKVs(1). The raw frames are read
// with a Reader whose guard IS MaxFrame, so any oversized reply fails the
// test by construction; the Client path on the same server then checks
// transparent reassembly, including mid-pipeline.
func TestE2EChunkedScan(t *testing.T) {
	const maxFrame = 165 // chunk capacity: (165-5)/16 = 10 records
	stack, err := lix.NewStack(nil, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{MaxFrame: maxFrame, CloseStore: true})
	defer srv.Shutdown()

	const n = 25
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i + 1), Value: core.Value(100 + i)}
		stack.Insert(recs[i].Key, recs[i].Value)
	}

	// Raw frame level: count the chunks and verify sizes and order.
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	w := wire.NewWriter(conn, maxFrame)
	r := wire.NewReader(conn, maxFrame) // reply frames must fit the guard
	scan := func(limit uint32) []wire.Msg {
		t.Helper()
		if err := w.Write(&wire.Msg{Op: wire.OpScan, Lo: 0, Hi: ^core.Key(0), Limit: limit}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var frames []wire.Msg
		for {
			m, err := r.Read()
			if err != nil {
				t.Fatalf("read reply frame: %v", err)
			}
			frames = append(frames, m)
			if m.Op != wire.RKVsPart {
				return frames
			}
		}
	}

	frames := scan(0) // full 25-record straddle
	if len(frames) != 3 || frames[0].Op != wire.RKVsPart || frames[1].Op != wire.RKVsPart || frames[2].Op != wire.RKVs {
		t.Fatalf("25-record scan framed as %d frames %v, want KVSPART KVSPART KVS", len(frames), frames)
	}
	var got []core.KV
	for _, f := range frames {
		if f.Op == wire.RKVsPart && len(f.Recs) != 10 {
			t.Fatalf("non-final chunk carries %d records, want the full 10", len(f.Recs))
		}
		got = append(got, f.Recs...)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("chunked scan returned %v, want %v", got, recs)
	}

	if frames = scan(10); len(frames) != 1 || frames[0].Op != wire.RKVs || len(frames[0].Recs) != 10 {
		t.Fatalf("exactly-fitting scan framed as %v, want one KVS of 10", frames)
	}
	if frames = scan(11); len(frames) != 2 || frames[0].Op != wire.RKVsPart || len(frames[1].Recs) != 1 {
		t.Fatalf("one-over scan framed as %v, want KVSPART(10) KVS(1)", frames)
	}

	// Client level: reassembly is transparent, even mid-pipeline.
	c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	all, err := c.Scan(0, ^core.Key(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, recs) {
		t.Fatalf("client Scan reassembled %d records, want %d", len(all), n)
	}
	reps, err := c.Pipeline([]wire.Msg{
		{Op: wire.OpGet, Key: 1},
		{Op: wire.OpScan, Lo: 0, Hi: ^core.Key(0), Limit: 0},
		{Op: wire.OpGet, Key: 25},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 || reps[0].Op != wire.RValue || reps[2].Op != wire.RValue {
		t.Fatalf("pipeline around chunked scan: %v", reps)
	}
	if reps[1].Op != wire.RKVs || !reflect.DeepEqual(reps[1].Recs, recs) {
		t.Fatalf("mid-pipeline chunked scan reply: %v", reps[1])
	}
}
