// Package serve is the networked serving front-end of the lix engine: a
// stdlib-only TCP server speaking the internal/wire protocol over any
// assembled index stack.
//
// The design goal is to make the batch capabilities from the engine layer
// (core.Applier, forwarded through shard, durable and obs wrappers) earn
// their keep on the network path, and to carry their error result back
// to the client: a write the store could not log answers ERR, never OK.
// Each connection is one goroutine that reads *pipelined request groups*:
// one blocking read for the first frame, then a non-blocking drain of
// every complete frame already received (wire.Reader.FrameBuffered). The
// group is then cut into stretches at the frames served alone (SCAN, PING,
// unknown opcodes), and each stretch of GET/MGET/SET/MSET/DEL frames —
// a whole 50/40/10 group of 32, or a pipelined MGET of 256 keys — is one
// core.Apply: one pass through the obs wrapper, one log append, one lock
// hold per touched shard, not one of each per run of like frames. Replies
// are encoded in request order into the connection's write buffer and
// flushed before the handler next blocks on a read — or earlier, once
// coalesceBytes of them are pending: while complete frames keep arriving,
// a burst of short groups shares one write(2). Over a store with the
// core.Committer capability (a durable stack) the stretches are applied
// and logged uncommitted, and every write of replies to a socket commits
// the store's log first (replyWriter): no reply byte — an acknowledgement,
// or a GET on any connection that saw the value — leaves before the log
// holds every record applied so far, at one log write per reply flush. A
// SCAN whose result set exceeds the frame guard streams as wire.RKVsPart
// chunks closed by a final RKVs, still one logical reply in order.
//
// Pipelined semantics are sequential: a request observes every earlier
// request on the same connection. A stretch preserves this because
// core.Apply's contract is the outcome of its ops done one by one in
// input order — the sharded layer keeps input order within each shard,
// and equal keys share a shard.
package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/trace"
	"github.com/lix-go/lix/internal/wire"
)

// Store is the index surface the server needs: the mutable point/range
// interface. The mixed-batch capability is optional and detected through
// core.Apply, so any layer of the engine stack — a bare backend,
// lix.Sharded, lix.Durable, an observed wrapper or the whole lix.Stack —
// serves without adaptation. Every write goes through core.Apply, so a
// store whose Apply returns an error has it answered to the client; Insert
// and Delete serve only as the loop fallback for stores without the
// capability. If the store also implements io.Closer and Config.CloseStore
// is set, Shutdown closes it after the drain.
type Store interface {
	Get(k core.Key) (core.Value, bool)
	Insert(k core.Key, v core.Value)
	Delete(k core.Key) bool
	Range(lo, hi core.Key, fn func(core.Key, core.Value) bool) int
}

// Config tunes a Server. The zero value listens on ":0" with the
// defaults below.
type Config struct {
	// Addr is the TCP listen address (default ":0", an ephemeral port).
	Addr string
	// MaxConns caps concurrently served connections (default 1024).
	// Excess dials receive an ERR frame and are closed.
	MaxConns int
	// MaxFrame is the frame-size guard in bytes for both directions
	// (default wire.DefaultMaxFrame).
	MaxFrame int
	// MaxGroup caps the frames drained into one pipelined group
	// (default 1024); longer pipelines are served as consecutive groups.
	MaxGroup int
	// MaxScan caps SCAN results per request (default 65536). A result set
	// too large for one frame streams back as RKVsPart chunks closed by a
	// final RKVs, so MaxScan is independent of MaxFrame.
	MaxScan int
	// IdleTimeout is the read deadline while waiting for the first frame
	// of a group (default 5m; negative disables). A connection idle past
	// it is closed.
	IdleTimeout time.Duration
	// WriteTimeout bounds each write of replies to the socket (default
	// 30s; negative disables).
	WriteTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight groups
	// (default 5s).
	DrainTimeout time.Duration
	// Metrics, when set, receives the serving instrumentation:
	// Conns gauge, Requests/Errors/Groups/Flushes counters, GroupLen and
	// per-op latency histograms, and the EvDrain event.
	Metrics *obs.Metrics
	// Tracer, when set, samples request groups into per-stage spans
	// (decode → dispatch → shard → wal → fsync → flush), feeds the slow-request
	// event log, and — when its hot-key sketch is enabled — counts every
	// read-path key. Nil disables tracing at zero cost; a tracer with
	// rate 0 costs one atomic load per group.
	Tracer *trace.Tracer
	// CloseStore makes Shutdown close the store (when it implements
	// io.Closer) after the drain completes.
	CloseStore bool
	// ErrorLog receives accept/serve diagnostics (default os.Stderr;
	// use io.Discard to silence).
	ErrorLog io.Writer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = ":0"
	}
	if out.MaxConns <= 0 {
		out.MaxConns = 1024
	}
	if out.MaxFrame <= 0 {
		out.MaxFrame = wire.DefaultMaxFrame
	}
	if out.MaxGroup <= 0 {
		out.MaxGroup = 1024
	}
	if out.MaxScan <= 0 {
		out.MaxScan = 65536
	}
	if out.IdleTimeout == 0 {
		out.IdleTimeout = 5 * time.Minute
	}
	if out.WriteTimeout == 0 {
		out.WriteTimeout = 30 * time.Second
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 5 * time.Second
	}
	if out.ErrorLog == nil {
		out.ErrorLog = os.Stderr
	}
	return out
}

// Server is a pipelined TCP front-end over a Store. Create with New,
// start with Start, stop with Shutdown.
type Server struct {
	cfg   Config
	store Store
	// commit is the store's commit capability, nil when it keeps no log to
	// commit: then writes are durable (as far as they ever are) when the
	// batch call returns, and replies need nothing in front of them.
	commit core.Committer

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup // accept loop + connection handlers
	started  atomic.Bool
}

// New returns an unstarted server over store.
func New(store Store, cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), store: store, conns: make(map[net.Conn]struct{})}
	s.commit, _ = store.(core.Committer)
	return s
}

// Start binds the listen address and begins accepting connections. It
// returns once the listener is live; serving continues on background
// goroutines until Shutdown.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("serve: server already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Draining reports whether Shutdown has begun. The admin plane's
// /readyz endpoint keys off it: a draining server still completes
// in-flight pipelined groups but should receive no new traffic.
func (s *Server) Draining() bool { return s.draining.Load() }

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Listener closed (Shutdown) or fatal accept error: stop.
			if !s.draining.Load() {
				fmt.Fprintf(s.cfg.ErrorLog, "lixserve: accept: %v\n", err)
			}
			return
		}
		if !s.track(conn) {
			// Over the connection limit (or draining): refuse politely.
			s.countError()
			refusal := "server at connection limit"
			if s.draining.Load() {
				refusal = "server draining"
			}
			w := wire.NewWriter(conn, s.cfg.MaxFrame)
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			w.Write(&wire.Msg{Op: wire.RErr, Err: refusal})
			w.Flush()
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// refuse sends conn one ERR frame, straight to the socket and bounded by a
// second, and counts it; the caller closes the connection.
func (s *Server) refuse(conn net.Conn, why string) {
	s.countError()
	w := wire.NewWriter(conn, s.cfg.MaxFrame)
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	w.Write(&wire.Msg{Op: wire.RErr, Err: why})
	w.Flush()
}

// track registers conn, enforcing MaxConns and the draining gate.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	if m := s.cfg.Metrics; m != nil {
		m.Conns.Inc()
	}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	if m := s.cfg.Metrics; m != nil {
		m.Conns.Dec()
	}
}

func (s *Server) countError() {
	if m := s.cfg.Metrics; m != nil {
		m.Errors.Inc()
	}
}

// coalesceBytes is how many bytes of replies may wait in the write buffer
// while a complete request frame is already buffered: under it the next
// group is dispatched before the flush, so a burst of short groups shares
// one write(2). It is a constant, not a Config field, chosen from a sweep
// of 0 / 1 / 4 / 32 KiB on both wire workloads of the repo benchmark
// (DESIGN §7 has the numbers): most of what draining the input dry gains,
// while a client that pipelines deeply still sees its first replies
// after a few hundred of them, not after all.
const coalesceBytes = 4 << 10

// serveConn runs one connection: read a pipelined group, dispatch it
// through the batch capabilities, encode the replies, repeat — flushing
// before every read that can block, when coalesceBytes of replies are
// pending, for a sampled span, on drain and on any error.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	r := wire.NewReader(conn, s.cfg.MaxFrame)
	rw := &replyWriter{conn: conn, timeout: s.cfg.WriteTimeout, m: s.cfg.Metrics, commit: s.commit}
	w := wire.NewWriter(rw, s.cfg.MaxFrame)
	group := make([]wire.Msg, 0, 64)
	sc := scratch{out: rw}
	tr := s.cfg.Tracer
	// flush delivers the pending replies and reports whether the connection
	// lives on. When the commit in front of the write failed while write
	// acknowledgements were pending, the replies are dropped — none of them
	// may leave — and the client is told why instead.
	flush := func() bool {
		err := w.Flush()
		var ce commitError
		if errors.As(err, &ce) {
			s.refuse(conn, ce.Error())
		}
		return err == nil
	}

	for {
		// With a complete frame buffered the next read cannot block, so
		// the replies pending may wait for that group's and no read
		// deadline is needed.
		more := r.FrameBuffered()
		if (!more || w.Buffered() >= coalesceBytes) && !flush() {
			return
		}
		// Deadline first, drain check second: Shutdown sets draining and
		// then stamps an immediate read deadline on every connection, so
		// this order guarantees a handler either sees the flag here or
		// has its blocking read below woken — never a lost wake-up.
		if !more && s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		if s.draining.Load() {
			flush()
			return
		}
		// One atomic load per group decides whether this iteration pays
		// for decode timing; the sampling decision itself waits until the
		// group size is known.
		traceOn := tr.Enabled()
		r.SetTiming(traceOn)

		// Decode the first frame, then every complete frame already
		// received, each into its slot of the group. A frame that fails
		// cuts the group: everything before it is served, then the
		// connection dies — with an ERR frame if the client broke the
		// protocol, quietly on EOF and drain wake-ups. It never travels
		// with valid requests into the dispatcher.
		group = group[:0]
		var groupErr error
		for {
			group = append(group, wire.Msg{})
			if groupErr = r.ReadInto(&group[len(group)-1]); groupErr != nil {
				group = group[:len(group)-1]
				break
			}
			if len(group) >= s.cfg.MaxGroup || !r.FrameBuffered() {
				break
			}
		}

		var sp *core.Span
		if len(group) > 0 {
			if traceOn {
				sp = tr.Start(len(group))
				// The reader accumulated parse time while the group was
				// drained — before the span existed; Total() adds it back.
				// Drained unconditionally so an unsampled group's parse time
				// cannot leak into the next sampled one.
				sp.Add(core.StageDecode, time.Duration(r.TakeDecodeNS()))
				rw.sp = sp // the commits in front of this group's replies are its wal and fsync time
			}
			s.dispatch(group, w, &sc, sp)
		}
		if sp == nil && groupErr == nil {
			continue
		}
		if isProtocolErr(groupErr) {
			s.countError()
			w.Write(&wire.Msg{Op: wire.RErr, Err: groupErr.Error()})
		}
		// A sampled group is flushed inside its span, so the span covers
		// the commit of its writes (the wal and fsync stages, inside flush)
		// and reply delivery, where a slow client shows up.
		flushStart := sp.Begin()
		alive := flush()
		sp.End(core.StageFlush, flushStart)
		rw.sp = nil
		tr.Finish(sp)
		if !alive || groupErr != nil {
			return
		}
	}
}

// replyWriter is what a connection's reply buffer writes to, so every
// call is one write(2) of replies: the flushes serveConn asks for (a
// flush of an empty buffer makes none) and the ones the buffer makes on
// its own when a group's replies outgrow it. Each is counted, and each
// is armed with WriteTimeout — none runs under the deadline a write long
// ago left behind. It is also the one place replies leave the process,
// which makes it the place the store's log is committed: before the
// write, up to the log's current end, so whatever these replies
// acknowledge or show — this connection's writes, or another's that a
// GET here saw — is in the log first.
type replyWriter struct {
	conn    net.Conn
	timeout time.Duration
	m       *obs.Metrics
	commit  core.Committer // nil: the store keeps no log to commit
	sp      *core.Span     // the sampled group in progress, else nil
	// acks: acknowledgements of uncommitted writes are in the buffer. A
	// failed commit then fails the write. Without them the replies are
	// reads and ERRs off a store that has latched its error, and they go
	// out: a latched store serves reads from memory.
	acks bool
}

// commitError is the store error a reply write was refused with.
type commitError struct{ error }

func (rw *replyWriter) Write(p []byte) (int, error) {
	if rw.commit != nil {
		if err := rw.commit.Commit(rw.sp); err != nil && rw.acks {
			return 0, commitError{err}
		}
		rw.acks = false
	}
	if rw.timeout > 0 {
		rw.conn.SetWriteDeadline(time.Now().Add(rw.timeout))
	}
	if rw.m != nil {
		rw.m.Flushes.Inc()
	}
	return rw.conn.Write(p)
}

// isProtocolErr reports whether err is a client-caused framing error that
// deserves an ERR reply (as opposed to EOF/timeouts/transport failures).
func isProtocolErr(err error) bool {
	return errors.Is(err, wire.ErrMalformed) || errors.Is(err, wire.ErrFrameTooLarge)
}

// batchable reports whether op joins a stretch — one store call for all
// the frames in it — rather than being served alone, as SCAN, PING and
// unknown opcodes are.
func batchable(op wire.Op) bool {
	switch op {
	case wire.OpGet, wire.OpMGet, wire.OpSet, wire.OpMSet, wire.OpDel:
		return true
	}
	return false
}

// scratch is one connection's batch-assembly buffers, reused across
// stretches and groups: the flattened ops of a stretch, the results of a
// SCAN, the store's answers, and the one Msg every scalar reply is encoded
// from. wire.Writer.Write encodes a reply into the write buffer before
// returning, so none of this outlives the call. out is where the write
// buffer drains to, told when write acknowledgements enter it.
type scratch struct {
	ops  []core.Op
	recs []core.KV
	vals []core.Value
	oks  []bool
	rep  wire.Msg
	out  *replyWriter
}

// results returns the vals and oks buffers sized to n answers.
func (sc *scratch) results(n int) ([]core.Value, []bool) {
	if cap(sc.oks) < n {
		sc.vals, sc.oks = make([]core.Value, n), make([]bool, n)
	}
	return sc.vals[:n], sc.oks[:n]
}

// reply encodes one scalar reply — RValue, RNil, ROK or RBool — through
// sc.rep instead of building a Msg per reply.
func (sc *scratch) reply(w *wire.Writer, op wire.Op, v core.Value, ok bool) {
	sc.rep.Op, sc.rep.Val, sc.rep.Ok = op, v, ok
	w.Write(&sc.rep)
}

func (sc *scratch) replyGet(w *wire.Writer, v core.Value, ok bool) {
	if ok {
		sc.reply(w, wire.RValue, v, false)
	} else {
		sc.reply(w, wire.RNil, 0, false)
	}
}

// dispatch serves one pipelined group: it cuts the group into maximal
// stretches of batchable frames at the solo frames, makes one store call
// per stretch, and writes one reply per request in request order. A
// non-nil span times the whole body as the dispatch stage; the store
// stages (shard/wal/fsync) nest inside it via core.Apply.
func (s *Server) dispatch(group []wire.Msg, w *wire.Writer, sc *scratch, sp *core.Span) {
	m := s.cfg.Metrics
	var mark time.Time // the last stretch boundary: one clock read per stretch, plus one
	if m != nil {
		m.Groups.Inc()
		m.GroupLen.Observe(uint64(len(group)))
		m.Requests.Add(uint64(len(group)))
		mark = time.Now()
	}
	defer sp.End(core.StageDispatch, sp.Begin())
	for i := 0; i < len(group); {
		j, solo := i+1, !batchable(group[i].Op)
		var frames [3]uint64 // a stretch's frames by family, indexed by core.OpKind
		if solo {
			s.serveSolo(&group[i], w, sc, sp)
		} else {
			for j < len(group) && batchable(group[j].Op) {
				j++
			}
			frames = s.serveBatch(group[i:j], w, sc, sp)
		}
		if m != nil {
			// Attribute the stretch's mean time per frame to each of its
			// frames, in its family's histogram.
			now := time.Now()
			lat := uint64(now.Sub(mark)) / uint64(j-i)
			mark = now
			m.GetNS.ObserveN(lat, frames[core.OpGet])
			m.InsertNS.ObserveN(lat, frames[core.OpPut])
			m.DeleteNS.ObserveN(lat, frames[core.OpDel])
			if solo {
				m.RangeNS.Observe(lat)
			}
		}
		i = j
	}
}

// serveBatch answers a stretch of GET/MGET/SET/MSET/DEL frames with one
// core.Apply of their ops flattened in request order, and returns its
// frames by family. Writes are applied uncommitted where the store can
// commit later, so their ROKs and RBools wait in the write buffer behind
// the commit replyWriter makes. A store that fails the call has applied
// none of its writes: each write frame is answered ERR, each read frame
// its value, and the connection stays open. Hot-key telemetry counts every
// read key at full rate: a 1% span sample would surface a hot key ~100×
// later.
func (s *Server) serveBatch(stretch []wire.Msg, w *wire.Writer, sc *scratch, sp *core.Span) (frames [3]uint64) {
	tr := s.cfg.Tracer
	if sp == nil && len(stretch) == 1 && stretch[0].Op == wire.OpGet {
		// Solo point read: skip batch assembly. (A sampled group takes
		// the batch path below so the store can attribute its stages.)
		tr.TouchKey(stretch[0].Key)
		v, ok := s.store.Get(stretch[0].Key)
		sc.replyGet(w, v, ok)
		frames[core.OpGet] = 1
		return frames
	}
	ops := sc.ops[:0]
	for i := range stretch {
		switch f := &stretch[i]; f.Op {
		case wire.OpGet:
			ops = append(ops, core.Op{Kind: core.OpGet, Key: f.Key})
		case wire.OpMGet:
			for _, k := range f.Keys {
				ops = append(ops, core.Op{Kind: core.OpGet, Key: k})
			}
		case wire.OpSet:
			ops = append(ops, core.Op{Kind: core.OpPut, Key: f.Key, Val: f.Val})
		case wire.OpMSet:
			for _, r := range f.Recs {
				ops = append(ops, core.Op{Kind: core.OpPut, Key: r.Key, Val: r.Value})
			}
		default:
			ops = append(ops, core.Op{Kind: core.OpDel, Key: f.Key})
		}
	}
	sc.ops = ops
	if tr.HotKeys() {
		for i := range ops {
			if ops[i].Kind == core.OpGet {
				tr.TouchKey(ops[i].Key)
			}
		}
	}
	vals, oks := sc.results(len(ops))
	err := core.Apply(s.store, ops, vals, oks, sp)
	fail := wire.Msg{Op: wire.RErr}
	if err != nil {
		fail.Err = err.Error()
	}
	// Split the flat answers back into one reply per request frame.
	off := 0
	for i := range stretch {
		f := &stretch[i]
		kind, n := core.OpPut, 1
		switch f.Op {
		case wire.OpGet:
			kind = core.OpGet
		case wire.OpMGet:
			kind, n = core.OpGet, len(f.Keys)
		case wire.OpMSet:
			n = len(f.Recs)
		case wire.OpDel:
			kind = core.OpDel
		}
		frames[kind]++
		switch {
		case f.Op == wire.OpGet:
			sc.replyGet(w, vals[off], oks[off])
		case f.Op == wire.OpMGet:
			w.Write(&wire.Msg{Op: wire.RValues, Vals: vals[off : off+n], Oks: oks[off : off+n]})
		case err != nil:
			s.countError()
			w.Write(&fail)
		case kind == core.OpDel:
			sc.reply(w, wire.RBool, 0, oks[off])
		default:
			sc.reply(w, wire.ROK, 0, false)
		}
		off += n
	}
	if err == nil && frames[core.OpPut]+frames[core.OpDel] > 0 {
		sc.out.acks = true
	}
	return frames
}

// serveSolo answers the non-batchable opcodes.
func (s *Server) serveSolo(m *wire.Msg, w *wire.Writer, sc *scratch, sp *core.Span) {
	switch m.Op {
	case wire.OpPing:
		sc.reply(w, wire.ROK, 0, false)
	case wire.OpScan:
		limit := s.cfg.MaxScan
		if m.Limit > 0 && int(m.Limit) < limit {
			limit = int(m.Limit)
		}
		recs := sc.recs[:0]
		if m.Lo <= m.Hi {
			scanStart := sp.Begin()
			s.store.Range(m.Lo, m.Hi, func(k core.Key, v core.Value) bool {
				recs = append(recs, core.KV{Key: k, Value: v})
				return len(recs) < limit
			})
			sp.End(core.StageShard, scanStart)
			sc.recs = recs
		}
		// A reply too large for one frame streams as RKVsPart chunks
		// closed by the final RKVs: payload is 5 header bytes + 16 per
		// record, so chunks of (MaxFrame-5)/16 records always fit.
		chunk := (s.cfg.MaxFrame - 5) / 16
		if chunk < 1 {
			chunk = 1
		}
		for len(recs) > chunk {
			w.Write(&wire.Msg{Op: wire.RKVsPart, Recs: recs[:chunk]})
			recs = recs[chunk:]
		}
		w.Write(&wire.Msg{Op: wire.RKVs, Recs: recs})
	default:
		s.countError()
		w.Write(&wire.Msg{Op: wire.RErr, Err: fmt.Sprintf("unsupported opcode %s", m.Op)})
	}
}

// Shutdown drains the server gracefully: stop accepting (late dials are
// refused), wake connections blocked waiting for a new group, let
// in-flight groups finish and their replies flush, then — after every
// handler returns or DrainTimeout passes — close remaining connections
// and, with Config.CloseStore, the store. It is idempotent; concurrent
// calls share the same drain.
func (s *Server) Shutdown() error {
	if !s.started.Load() {
		return errors.New("serve: server not started")
	}
	first := s.draining.CompareAndSwap(false, true)
	if first {
		s.ln.Close()
		// Wake handlers blocked in the first-frame read: the expired
		// deadline surfaces as a read error, and the draining flag turns
		// it into a quiet exit. A handler mid-group is untouched — it
		// holds no deadline until its next read — so its replies flush.
		s.mu.Lock()
		open := len(s.conns)
		for c := range s.conns {
			c.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		if m := s.cfg.Metrics; m != nil {
			m.Event(obs.Event{Type: obs.EvDrain, N: open, Detail: "begin"})
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		err = fmt.Errorf("serve: drain timeout after %v", s.cfg.DrainTimeout)
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}

	if first {
		if m := s.cfg.Metrics; m != nil {
			m.Event(obs.Event{Type: obs.EvDrain, Detail: "complete"})
		}
		if s.cfg.CloseStore {
			if c, ok := s.store.(io.Closer); ok {
				if cerr := c.Close(); err == nil {
					err = cerr
				}
			}
		}
	}
	return err
}
