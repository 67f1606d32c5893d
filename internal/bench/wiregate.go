package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/wire"
)

// wireInflight is how many pipelined groups the wire gate's client keeps
// in flight, the repo benchmark's wire-read shape: the server always has a
// next group buffered, which is the case flush coalescing is for.
const wireInflight = 8

// wireFloor is the least of the in-process batched lookup rate a GET may
// keep once it crosses one loopback connection. With frames decoded in
// place, replies encoded into the write buffer and flushes coalesced the
// 2-vCPU sandbox reads 0.356-0.412, median 0.392 (twenty runs, client and
// server sharing the process and its two cores; 0.292 once, started
// while a build was still winding down); the parent's copy-per-frame,
// flush-per-group path read 0.264-0.303, median 0.295, in ten runs
// alternated with ten of those. 0.27 is 0.7 of the former's median: it
// leaves the host's swings room and so sits inside the parent's range — a
// path slower than the parent's falls under it, the parent's own would
// not always. With one store call per stretch of frames, two runs
// alternated with two of run-by-run dispatch: 0.475-0.477 against
// 0.433-0.460.
const wireFloor = 0.27

// wireDurableFloor is the least of the in-memory server's rate the same
// mixed groups may keep over a durable stack (FsyncNever, no checkpoints:
// the request path's log and apply, not the flushes beside it). With one
// log write per reply flush the 2-vCPU sandbox reads 0.822-0.863, median
// 0.850 (ten runs); with the parent's write(2) per run per segment this
// gate read 0.589-0.622, median 0.612 (five runs). 0.59 is 0.7 of the
// former's median, which — as with wireFloor — leaves the host's swings
// room and so reaches into the parent's range: the floor that separates
// the two designs exactly is the count beside it, groups per log write.
// With one store call per stretch, the same two-and-two runs: durable
// 2135-2166 Kops/s against 1320-1452, in-memory 2413-2500 against
// 1626-1762, ratio 0.867-0.885 against 0.812-0.824; groups per store call
// is 1 against 0.068.
const wireDurableFloor = 0.59

// wireServer is one server over stack with one raw client connection to
// it, for running pipelined groups of cfg.Pipeline requests through.
type wireServer struct {
	srv  *lix.Server
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
}

func newWireServer(stack *lix.Stack, m *lix.Metrics) (*wireServer, error) {
	srv := lix.NewServer(stack, lix.ServeConfig{ErrorLog: io.Discard, CloseStore: true, Metrics: m})
	if err := srv.Start(); err != nil {
		stack.Close()
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	return &wireServer{srv: srv, conn: conn, r: wire.NewReader(conn, 0), w: wire.NewWriter(conn, 0)}, nil
}

func (ws *wireServer) close() {
	ws.conn.Close()
	ws.srv.Shutdown()
}

// run sends reqs as groups of pipeline requests, inflight groups ahead of
// the replies read, and returns the rate. Every reply must be of a kind
// its request can have; an ERR, or a miss where hits says every GET hits,
// fails the run.
func (ws *wireServer) run(reqs []wire.Msg, pipeline, inflight int, hits bool) (float64, error) {
	groups := len(reqs) / pipeline
	var rep wire.Msg
	ws.conn.SetDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	for sent, got := 0, 0; got < groups; got++ {
		for ; sent < groups && sent-got < inflight; sent++ {
			for i := sent * pipeline; i < (sent+1)*pipeline; i++ {
				if err := ws.w.Write(&reqs[i]); err != nil {
					return 0, err
				}
			}
			if err := ws.w.Flush(); err != nil {
				return 0, err
			}
		}
		for i := got * pipeline; i < (got+1)*pipeline; i++ {
			if err := ws.r.ReadInto(&rep); err != nil {
				return 0, err
			}
			if rep.Op == wire.RErr || (hits && rep.Op != wire.RValue) {
				return 0, fmt.Errorf("bench: %s answered %s %s", reqs[i].Op, rep.Op, rep.Err)
			}
		}
	}
	return float64(groups*pipeline) / time.Since(start).Seconds(), nil
}

// gateWire holds the serve rung to what is under it, twice. Read path:
// cfg.Q GETs of present keys per slice, as groups of cfg.Pipeline with
// wireInflight groups in flight on one loopback connection to
// lix.NewServer, against the same keys in the same groups as gets-only
// Apply calls on the same stack in process. Write path: the same number of mixed
// requests (50 % GET, 40 % SET, 10 % DEL, the repo benchmark's wire-durable
// mix) in the same shape over a durable stack against an in-memory one,
// both behind servers — what the log costs a pipelined client — and, one
// group at a time so that the counts repeat exactly, the log write(2)s
// and the store calls (the obs wrapper's batches) the durable server made
// per group it dispatched: at most one of each, as the mix has no frame
// served alone. abMedian alternates the sides slice by slice.
func gateWire(cfg Config) ([]*Table, []floor, error) {
	recs := make([]lix.KV, cfg.N)
	for i := range recs {
		recs[i] = lix.KV{Key: lix.Key(i * 16), Value: lix.Value(i)}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	getOps := make([]lix.Op, cfg.Q)
	gets, mixed := make([]wire.Msg, cfg.Q), make([]wire.Msg, cfg.Q)
	for i := range getOps {
		k := recs[rng.Intn(cfg.N)].Key
		getOps[i] = lix.Op{Kind: lix.OpGet, Key: k}
		gets[i] = wire.Msg{Op: wire.OpGet, Key: k}
		switch p := rng.Intn(10); {
		case p < 5:
			mixed[i] = gets[i]
		case p < 9:
			mixed[i] = wire.Msg{Op: wire.OpSet, Key: k, Val: lix.Value(i)}
		default:
			mixed[i] = wire.Msg{Op: wire.OpDel, Key: k}
		}
	}
	groups := cfg.Q / cfg.Pipeline

	wireMed, inprocMed, err := abMedian(abRounds, abSlices, func() (side, side, func(), error) {
		stack, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards})
		if err != nil {
			return nil, nil, nil, err
		}
		ws, err := newWireServer(stack, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		overWire := func() (float64, error) { return ws.run(gets, cfg.Pipeline, wireInflight, true) }
		vals, oks := make([]lix.Value, cfg.Pipeline), make([]bool, cfg.Pipeline)
		inProcess := func() (float64, error) {
			start := time.Now()
			for g := 0; g < groups; g++ {
				if err := stack.Apply(getOps[g*cfg.Pipeline:(g+1)*cfg.Pipeline], vals, oks, nil); err != nil {
					return 0, err
				}
				for _, ok := range oks {
					if !ok {
						return 0, fmt.Errorf("bench: a get in process missed a present key")
					}
				}
			}
			return float64(groups*cfg.Pipeline) / time.Since(start).Seconds(), nil
		}
		return overWire, inProcess, ws.close, nil
	})
	if err != nil {
		return nil, nil, err
	}

	// durable is a server over a fresh durable stack in its own directory.
	durable := func() (*wireServer, *lix.Metrics, func(), error) {
		dir, err := os.MkdirTemp("", "lixbench-wire-")
		if err != nil {
			return nil, nil, nil, err
		}
		m := lix.NewMetrics("wire-durable")
		stack, err := lix.NewStack(recs, lix.StackConfig{
			Shards: cfg.Shards, Dir: dir, Fsync: lix.FsyncNever, CheckpointEvery: -1, Metrics: m,
		})
		if err == nil {
			var ws *wireServer
			if ws, err = newWireServer(stack, m); err == nil {
				return ws, m, func() { ws.close(); os.RemoveAll(dir) }, nil
			}
		}
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	durMed, memMed, err := abMedian(abRounds, abSlices, func() (side, side, func(), error) {
		dur, _, closeDur, err := durable()
		if err != nil {
			return nil, nil, nil, err
		}
		m := lix.NewMetrics("wire-memory")
		stack, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards, Metrics: m})
		if err != nil {
			closeDur()
			return nil, nil, nil, err
		}
		mem, err := newWireServer(stack, m)
		if err != nil {
			closeDur()
			return nil, nil, nil, err
		}
		return func() (float64, error) { return dur.run(mixed, cfg.Pipeline, wireInflight, false) },
			func() (float64, error) { return mem.run(mixed, cfg.Pipeline, wireInflight, false) },
			func() { closeDur(); mem.close() }, nil
	})
	if err != nil {
		return nil, nil, err
	}
	dur, m, closeDur, err := durable()
	if err != nil {
		return nil, nil, err
	}
	_, err = dur.run(mixed, cfg.Pipeline, 1, false)
	closeDur()
	if err != nil {
		return nil, nil, err
	}
	snap := m.Snapshot()
	dispatched, logWrites := float64(snap.Counters["groups"]), float64(snap.Counters["wal_writes"])
	storeCalls := float64(snap.Counters["batches"])

	t := &Table{
		ID: "WIRE",
		Title: fmt.Sprintf("one loopback connection, groups of %d, %d in flight, n=%d, %d shards, median of %d rounds: GETs vs the same stack's gets-only Apply in process; mixed 50/40/10 GET/SET/DEL over a durable stack vs an in-memory one",
			cfg.Pipeline, wireInflight, cfg.N, cfg.Shards, abRounds),
		Columns: []string{"path", "Kops/s", "vs reference"},
	}
	t.AddRow("in-process Apply", inprocMed/1e3, "1.000")
	t.AddRow("wire GET", wireMed/1e3, fmt.Sprintf("%.3f", wireMed/inprocMed))
	t.AddRow("wire mixed, in-memory", memMed/1e3, "1.000")
	t.AddRow("wire mixed, durable", durMed/1e3, fmt.Sprintf("%.3f", durMed/memMed))
	t.AddRow("durable, one group at a time: groups per log write(2)", "", fmt.Sprintf("%.3f", dispatched/logWrites))
	t.AddRow("durable, one group at a time: groups per store call", "", fmt.Sprintf("%.3f", dispatched/storeCalls))
	return []*Table{t}, []floor{
		{name: "wire/get/pipeline", got: wireMed, ref: inprocMed, min: wireFloor},
		{name: "wire/durable/mixed", got: durMed, ref: memMed, min: wireDurableFloor},
		{name: "wire/durable/groups-per-log-write", got: dispatched, ref: logWrites, min: 1},
		{name: "wire/durable/batches-per-group", got: dispatched, ref: storeCalls, min: 1},
	}, nil
}
