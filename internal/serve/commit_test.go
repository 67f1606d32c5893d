package serve_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/serve"
	"github.com/lix-go/lix/internal/wire"
)

// The server's half of the commit protocol, against a store that has the
// core.Applier and core.Committer capabilities and nothing else of a
// durable stack: Apply applies at once and "logs" when Commit gets
// through, Commit can be held or failed from the test, and Apply can be
// failed the way a log that refuses an append fails it.

type commitStore struct {
	mu      sync.Mutex
	applied map[core.Key]core.Value // what reads see
	logged  map[core.Key]core.Value // what a crash would keep
	gate    chan struct{}           // non-nil: Commit waits for it to close
	fail    error                   // non-nil: Commit returns it and logs nothing
	refuse  error                   // non-nil: Apply returns it, applying no write
	applies int                     // Apply calls
}

func newCommitStore() *commitStore {
	return &commitStore{applied: map[core.Key]core.Value{}, logged: map[core.Key]core.Value{}}
}

func (s *commitStore) Get(k core.Key) (core.Value, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.applied[k]
	return v, ok
}

func (s *commitStore) Insert(k core.Key, v core.Value) {
	s.Apply([]core.Op{{Kind: core.OpPut, Key: k, Val: v}}, make([]core.Value, 1), make([]bool, 1), nil)
}
func (s *commitStore) Delete(k core.Key) bool {
	oks := make([]bool, 1)
	s.Apply([]core.Op{{Kind: core.OpDel, Key: k}}, make([]core.Value, 1), oks, nil)
	return oks[0]
}
func (s *commitStore) Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int { return 0 }

// Apply is the uncommitted write, in input order; refused, it still
// answers the gets and reports every delete false, as Durable.Apply does.
func (s *commitStore) Apply(ops []core.Op, vals []core.Value, oks []bool, _ *core.Span) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applies++
	for i, op := range ops {
		switch {
		case op.Kind == core.OpGet:
			vals[i], oks[i] = s.applied[op.Key]
		case s.refuse != nil:
			oks[i] = false
		case op.Kind == core.OpPut:
			s.applied[op.Key] = op.Val
		default:
			_, oks[i] = s.applied[op.Key]
			delete(s.applied, op.Key)
		}
	}
	return s.refuse
}

func (s *commitStore) Commit(*core.Span) error {
	s.mu.Lock()
	gate, fail := s.gate, s.fail
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if fail != nil {
		return fail
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logged = make(map[core.Key]core.Value, len(s.applied))
	for k, v := range s.applied {
		s.logged[k] = v
	}
	return nil
}

func (s *commitStore) loggedValue(k core.Key) (core.Value, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.logged[k]
	return v, ok
}

// silent reports that nothing arrives on conn for a while: the read times
// out with no byte read.
func silent(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	var b [1]byte
	var ne net.Error
	if n, err := conn.Read(b[:]); n != 0 || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("%s: read %d bytes (%v) while the commit was held, want none", what, n, err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
}

// TestNoReplyBeforeCommit holds the store's commit and checks that nothing
// leaves the server meanwhile: not connection A's ROK for the SET it made,
// and not connection B's answer to a GET of that key — B saw A's value in
// memory, so B's reply too must wait until the log holds A's record. When
// the commit is let through both arrive, and at that moment the record is
// logged.
func TestNoReplyBeforeCommit(t *testing.T) {
	store := newCommitStore()
	store.gate = make(chan struct{})
	srv := startServer(t, store, serve.Config{})
	defer srv.Shutdown()

	a, ra := dialRaw(t, srv)
	if _, err := a.Write(frames(t, wire.Msg{Op: wire.OpSet, Key: 1, Val: 10})); err != nil {
		t.Fatal(err)
	}
	silent(t, a, "A's ROK")
	if v, ok := store.Get(1); !ok || v != 10 {
		t.Fatalf("the SET is not applied: (%d, %v)", v, ok)
	}
	b, rb := dialRaw(t, srv)
	if _, err := b.Write(frames(t, wire.Msg{Op: wire.OpGet, Key: 1})); err != nil {
		t.Fatal(err)
	}
	silent(t, b, "B's value")
	if _, ok := store.loggedValue(1); ok {
		t.Fatal("the record is logged while the commit is held")
	}

	close(store.gate)
	if rep, err := ra.Read(); err != nil || rep.Op != wire.ROK {
		t.Fatalf("A's reply = %+v, %v; want OK", rep, err)
	}
	if v, ok := store.loggedValue(1); !ok || v != 10 {
		t.Fatal("A was acknowledged before its record was logged")
	}
	if rep, err := rb.Read(); err != nil || rep.Op != wire.RValue || rep.Val != 10 {
		t.Fatalf("B's reply = %+v, %v; want the value 10", rep, err)
	}
}

// TestFailedCommitNeverAcknowledges fails the commit in front of a group's
// replies: none of them may leave — not the ROKs, not the reads beside
// them — the client gets one ERR carrying the store's error, the Errors
// counter moves, and the connection closes. A connection with no write
// acknowledgement pending is still served: a latched store answers reads
// from memory.
func TestFailedCommitNeverAcknowledges(t *testing.T) {
	store := newCommitStore()
	store.Insert(5, 50)
	store.fail = errors.New("disk gone")
	m := obs.NewMetrics("failed-commit")
	srv := startServer(t, store, serve.Config{Metrics: m})
	defer srv.Shutdown()

	conn, r := dialRaw(t, srv)
	if _, err := conn.Write(frames(t,
		wire.Msg{Op: wire.OpGet, Key: 5},
		wire.Msg{Op: wire.OpSet, Key: 1, Val: 10},
		wire.Msg{Op: wire.OpSet, Key: 2, Val: 20},
		wire.Msg{Op: wire.OpDel, Key: 5},
		wire.Msg{Op: wire.OpGet, Key: 1},
	)); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Read()
	if err != nil || rep.Op != wire.RErr || !strings.Contains(rep.Err, "disk gone") {
		t.Fatalf("first frame after a failed commit = %+v, %v; want ERR with the store's error", rep, err)
	}
	if rep, err := r.Read(); err != io.EOF {
		t.Fatalf("after the ERR: %+v, %v; want the connection closed", rep, err)
	}
	if got := m.Errors.Load(); got != 1 {
		t.Errorf("Errors = %d, want 1", got)
	}

	reader, rr := dialRaw(t, srv)
	if _, err := reader.Write(frames(t, wire.Msg{Op: wire.OpGet, Key: 2}, wire.Msg{Op: wire.OpPing})); err != nil {
		t.Fatal(err)
	}
	if rep, err := rr.Read(); err != nil || rep.Op != wire.RValue || rep.Val != 20 {
		t.Fatalf("GET on the latched store = %+v, %v; want the unacknowledged 20 from memory", rep, err)
	}
	wantReplies(t, rr, "ping on the latched store", wire.ROK)
}

// TestAcknowledgedWritesSurviveCrash is the protocol end to end over a
// real durable stack: several connections pipeline mixed groups while
// checkpoints rotate the log under them, each tracking what it was
// acknowledged; then the store is crashed — the log's buffer dropped,
// nothing synced, no drain — and the directory reopened. Every
// acknowledged write must be there: a reply that left before its record
// was in the file, or a record stranded in the old log's buffer at a
// checkpoint cut, shows as a lost key.
func TestAcknowledgedWritesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	stack, err := lix.NewStack([]lix.KV{}, lix.StackConfig{
		Dir: dir, Shards: 4, Fsync: lix.FsyncNever, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{MaxGroup: 32})
	defer srv.Shutdown()

	const clients, rounds, group = 3, 60, 32
	acked := make([]map[core.Key]core.Value, clients)
	var wg sync.WaitGroup
	for c := range acked {
		acked[c] = map[core.Key]core.Value{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			reqs := make([]wire.Msg, group)
			for round := 0; round < rounds; round++ {
				for i := range reqs {
					k := core.Key(c*1000 + (round*7+i*3)%200) // each client owns its keys
					switch i % 5 {
					case 0, 1, 2:
						reqs[i] = wire.Msg{Op: wire.OpSet, Key: k, Val: core.Value(round*group + i + 1)}
					case 3:
						reqs[i] = wire.Msg{Op: wire.OpGet, Key: k}
					default:
						reqs[i] = wire.Msg{Op: wire.OpDel, Key: k}
					}
				}
				reps, err := cl.Pipeline(reqs, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for i, rep := range reps {
					switch {
					case rep.Op == wire.RErr:
						t.Errorf("client %d: %s answered ERR %s", c, reqs[i].Op, rep.Err)
						return
					case reqs[i].Op == wire.OpSet:
						acked[c][reqs[i].Key] = reqs[i].Val
					case reqs[i].Op == wire.OpDel:
						delete(acked[c], reqs[i].Key)
					}
				}
			}
		}(c)
	}
	// Checkpoints, back to back, for as long as the clients run.
	clientsDone, cutsDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(cutsDone)
		for n := 0; ; n++ {
			select {
			case <-clientsDone:
				if n >= 2 {
					return
				}
			default:
			}
			if err := stack.Durable().Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(clientsDone)
	<-cutsDone
	if gen := stack.Durable().Gen(); gen < 3 {
		t.Fatalf("generation %d: the cut was not exercised", gen)
	}
	if err := stack.Durable().Crash(); err != nil {
		t.Fatal(err)
	}

	re, err := lix.NewStack(nil, lix.StackConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	want := 0
	for c := range acked {
		want += len(acked[c])
		for k, v := range acked[c] {
			if got, ok := re.Get(k); !ok || got != v {
				t.Fatalf("client %d: key %d = (%d, %v) after the crash, acknowledged %d", c, k, got, ok, v)
			}
		}
	}
	if re.Len() != want {
		t.Fatalf("%d records after the crash, %d acknowledged", re.Len(), want)
	}
}

// TestFailedAppendAnswersEveryFrame refuses the store call of a mixed
// stretch, as a log that cannot take the append does: every SET, MSET and
// DEL frame is answered ERR with the store's error, every GET and MGET
// frame its value — the value before the stretch, since none of its
// writes was applied — in request order, in one store call, and the
// connection stays open.
func TestFailedAppendAnswersEveryFrame(t *testing.T) {
	store := newCommitStore()
	store.Insert(1, 10)
	store.Insert(2, 20)
	store.refuse = errors.New("log refused the append")
	m := obs.NewMetrics("failed-append")
	srv := startServer(t, store, serve.Config{Metrics: m})
	defer srv.Shutdown()

	conn, r := dialRaw(t, srv)
	reqs := []wire.Msg{
		{Op: wire.OpGet, Key: 1},
		{Op: wire.OpSet, Key: 1, Val: 11},
		{Op: wire.OpGet, Key: 1},
		{Op: wire.OpMSet, Recs: []core.KV{{Key: 3, Value: 30}, {Key: 2, Value: 21}}},
		{Op: wire.OpMGet, Keys: []core.Key{2, 3, 1}},
		{Op: wire.OpDel, Key: 2},
		{Op: wire.OpGet, Key: 2},
	}
	if _, err := conn.Write(frames(t, reqs...)); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		rep, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d (%s): %v", i, req.Op, err)
		}
		switch req.Op {
		case wire.OpSet, wire.OpMSet, wire.OpDel:
			if rep.Op != wire.RErr || !strings.Contains(rep.Err, "refused the append") {
				t.Errorf("frame %d (%s) = %+v, want ERR with the store's error", i, req.Op, rep)
			}
		case wire.OpGet:
			if want := core.Value(req.Key * 10); rep.Op != wire.RValue || rep.Val != want {
				t.Errorf("frame %d (GET %d) = %+v, want the value %d from before the stretch", i, req.Key, rep, want)
			}
		case wire.OpMGet:
			if rep.Op != wire.RValues || len(rep.Vals) != 3 || rep.Vals[0] != 20 || rep.Oks[1] || rep.Vals[2] != 10 {
				t.Errorf("frame %d (MGET 2 3 1) = %+v, want [20 absent 10]", i, rep)
			}
		}
	}
	store.mu.Lock()
	applies := store.applies - 2 // the two Inserts above
	store.mu.Unlock()
	if groups := m.Groups.Load(); uint64(applies) != groups {
		t.Errorf("%d store calls for %d groups of one stretch each, want one per group", applies, groups)
	}
	if got := m.Errors.Load(); got != 3 {
		t.Errorf("Errors = %d, want 3: one per write frame", got)
	}
	for k, want := range map[core.Key]core.Value{1: 10, 2: 20} {
		if v, ok := store.Get(k); !ok || v != want {
			t.Errorf("key %d = (%d, %v) after the refused stretch, want %d", k, v, ok, want)
		}
	}
	if _, ok := store.Get(3); ok {
		t.Error("the refused MSET was applied")
	}
	if _, err := conn.Write(frames(t, wire.Msg{Op: wire.OpPing})); err != nil {
		t.Fatal(err)
	}
	wantReplies(t, r, "ping after the refused stretch", wire.ROK)
}
