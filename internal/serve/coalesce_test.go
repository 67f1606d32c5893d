package serve_test

import (
	"io"
	"math"
	"net"
	"testing"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/serve"
	"github.com/lix-go/lix/internal/wire"
)

// The edge cases of flush coalescing, end to end over real TCP: the
// server may hold a group's replies back while another complete frame is
// buffered, and none of these may lose, reorder or strand one. MaxGroup is
// set low so a single small write from the client is several groups.

// dialRaw opens a plain connection to srv with a 5 s read deadline and
// returns it with a wire.Reader over it.
func dialRaw(t *testing.T, srv *serve.Server) (net.Conn, *wire.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return conn, wire.NewReader(conn, 0)
}

// frames encodes msgs back to back.
func frames(t *testing.T, msgs ...wire.Msg) []byte {
	t.Helper()
	var b []byte
	for i := range msgs {
		var err error
		if b, err = wire.AppendFrame(b, &msgs[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// wantReplies reads one reply per wanted opcode, in order.
func wantReplies(t *testing.T, r *wire.Reader, what string, ops ...wire.Op) {
	t.Helper()
	for i, op := range ops {
		if rep, err := r.Read(); err != nil || rep.Op != op {
			t.Fatalf("%s: reply %d = %+v, %v; want %s", what, i, rep, err, op)
		}
	}
}

// TestDrainDeliversCoalescedReplies is the pipelined variant of
// TestGracefulDrain: Shutdown arrives while the first group's replies are
// still in the write buffer — held back because the second group was
// already buffered — and the second group is parked inside the store.
// Every reply of every dispatched group must reach the client before the
// connection closes; the third group, never dispatched, draws none.
func TestDrainDeliversCoalescedReplies(t *testing.T) {
	stack, err := lix.NewStack([]lix.KV{{Key: 1, Value: 11}}, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateStore{Store: stack, entered: make(chan struct{}), release: make(chan struct{})}
	srv := startServer(t, gate, serve.Config{MaxGroup: 2, DrainTimeout: 10 * time.Second})
	conn, r := dialRaw(t, srv)

	set := func(k core.Key) wire.Msg { return wire.Msg{Op: wire.OpSet, Key: k, Val: k * 10} }
	if _, err := conn.Write(frames(t,
		set(2), set(3), // group 1: answered, replies held back
		wire.Msg{Op: wire.OpGet, Key: 1}, set(4), // group 2: the GET parks in the store
		set(5), set(6), // group 3: buffered, never dispatched
	)); err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown() }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(gate.release)

	wantReplies(t, r, "dispatched groups", wire.ROK, wire.ROK, wire.RValue, wire.ROK)
	if rep, err := r.Read(); err != io.EOF {
		t.Fatalf("after the dispatched groups: %+v, %v; want a clean EOF", rep, err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, ok := stack.Get(5); ok {
		t.Error("a group behind the drain was dispatched")
	}
}

// TestMalformedFrameBehindBufferedGroups is the coalesced variant of
// TestMalformedFrameCutsGroup: two valid groups and a malformed frame
// arrive together. Every valid reply, then exactly one ERR, then close.
func TestMalformedFrameBehindBufferedGroups(t *testing.T) {
	stack, err := lix.NewStack(nil, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := lix.NewMetrics("malformed-coalesced")
	srv := startServer(t, stack, serve.Config{MaxGroup: 2, Metrics: m, CloseStore: true})
	defer srv.Shutdown()
	conn, r := dialRaw(t, srv)

	stream := frames(t,
		wire.Msg{Op: wire.OpSet, Key: 9, Val: 90}, wire.Msg{Op: wire.OpGet, Key: 9},
		wire.Msg{Op: wire.OpDel, Key: 9}, wire.Msg{Op: wire.OpGet, Key: 9})
	stream = append(stream, 0, 0, 0, 2, 0x7f, 0x00) // complete frame, unknown opcode
	stream = append(stream, frames(t, wire.Msg{Op: wire.OpSet, Key: 10, Val: 100})...)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, r, "valid groups, then the malformed frame",
		wire.ROK, wire.RValue, wire.RBool, wire.RNil, wire.RErr)
	if rep, err := r.Read(); err != io.EOF {
		t.Fatalf("after the ERR: %+v, %v; want a clean EOF", rep, err)
	}
	if _, ok := stack.Get(10); ok {
		t.Error("request after a malformed frame was served")
	}
	// The three write(2)s a flush per group would have made became one.
	if g, f := m.Groups.Load(), m.Flushes.Load(); g != 2 || f != 1 {
		t.Errorf("groups = %d, flushes = %d, want 2 groups delivered by 1 flush", g, f)
	}
}

// TestNoFlushStarvation: a client that stops sending — after one group,
// or in the middle of a frame — and waits for its replies gets them. The
// half frame is the trap: bytes are buffered, but no complete frame, so
// the held-back replies must go out before the server blocks on the rest.
func TestNoFlushStarvation(t *testing.T) {
	stack, err := lix.NewStack([]lix.KV{{Key: 1, Value: 11}}, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{MaxGroup: 1, CloseStore: true})
	defer srv.Shutdown()
	conn, r := dialRaw(t, srv)

	get := wire.Msg{Op: wire.OpGet, Key: 1}
	if _, err := conn.Write(frames(t, get)); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, r, "one group, then silence", wire.RValue)

	last := frames(t, wire.Msg{Op: wire.OpSet, Key: 2, Val: 22})
	if _, err := conn.Write(append(frames(t, get, get), last[:7]...)); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, r, "two groups, then half a frame", wire.RValue, wire.RValue)
	if _, err := conn.Write(last[7:]); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, r, "the rest of the frame", wire.ROK)
}

// TestWriteTimeoutBoundsCoalescedFlush: a client pipelines SCANs whose
// replies stay under the coalescing bound — so every flush carries more
// than one group — and never reads. Once the socket buffers fill, a flush
// blocks; WriteTimeout must end it and the connection with it.
func TestWriteTimeoutBoundsCoalescedFlush(t *testing.T) {
	recs := make([]lix.KV, 64)
	for i := range recs {
		recs[i] = lix.KV{Key: lix.Key(i), Value: lix.Value(i)}
	}
	stack, err := lix.NewStack(recs, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := lix.NewMetrics("write-timeout")
	srv := startServer(t, stack, serve.Config{MaxGroup: 1, Metrics: m, WriteTimeout: 100 * time.Millisecond, CloseStore: true})
	defer srv.Shutdown()
	conn, r := dialRaw(t, srv)

	// 50 records = an 805-byte reply to a 25-byte request; 64 MB of
	// replies outgrow any loopback socket buffer.
	scan := frames(t, wire.Msg{Op: wire.OpScan, Lo: 0, Hi: math.MaxUint64, Limit: 50})
	if _, err := conn.Write(scan); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, r, "the last reply this client reads", wire.RKVs)
	var burst []byte
	for i := 0; i < 1000; i++ {
		burst = append(burst, scan...)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < 80; i++ {
			if _, err := conn.Write(burst); err != nil {
				return // the server hung up: what the test is waiting for
			}
		}
	}()
	defer func() {
		conn.Close()
		<-sent
	}()
	for deadline := time.Now().Add(20 * time.Second); m.Conns.Load() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("connection still open %d groups and %d flushes after the client stopped reading", m.Groups.Load(), m.Flushes.Load())
		}
	}
	if g, f := m.Groups.Load(), m.Flushes.Load(); f >= g {
		t.Errorf("groups = %d, flushes = %d: the flushes were not coalesced, so this did not test a coalesced flush", g, f)
	}
}

// TestWriteDeadlineIsFresh: a reply larger than the write buffer is
// written to the socket from inside dispatch, not by the flush after it.
// That write must run under its own WriteTimeout, not under the expired
// deadline of the connection's previous flush.
func TestWriteDeadlineIsFresh(t *testing.T) {
	recs := make([]lix.KV, 5000) // an 80 KB SCAN reply; the write buffer is 64 KiB
	for i := range recs {
		recs[i] = lix.KV{Key: lix.Key(i), Value: lix.Value(i)}
	}
	stack, err := lix.NewStack(recs, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{WriteTimeout: 50 * time.Millisecond, CloseStore: true})
	defer srv.Shutdown()
	c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the PING's write deadline passes
	got, err := c.Scan(0, math.MaxUint64, 0)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("SCAN after an idle spell longer than WriteTimeout: %d records, %v", len(got), err)
	}
}
