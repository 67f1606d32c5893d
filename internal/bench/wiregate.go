package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net"
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
// not always.
const wireFloor = 0.27

// gateWire holds the serve rung to the index under it: cfg.Q GETs of
// present keys per slice, as groups of cfg.Pipeline with wireInflight
// groups in flight on one loopback connection to lix.NewServer, against
// the same keys in the same groups through the same stack's LookupBatch
// in process. abMedian alternates the two sides slice by slice. Every
// reply and every in-process answer is checked to be a hit.
func gateWire(cfg Config) ([]*Table, []floor, error) {
	recs := make([]lix.KV, cfg.N)
	for i := range recs {
		recs[i] = lix.KV{Key: lix.Key(i * 16), Value: lix.Value(i)}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]lix.Key, cfg.Q)
	for i := range keys {
		keys[i] = recs[rng.Intn(cfg.N)].Key
	}
	groups := cfg.Q / cfg.Pipeline

	wireMed, inprocMed, err := abMedian(abRounds, abSlices, func() (side, side, func(), error) {
		stack, err := lix.NewStack(recs, lix.StackConfig{Shards: cfg.Shards})
		if err != nil {
			return nil, nil, nil, err
		}
		srv := lix.NewServer(stack, lix.ServeConfig{ErrorLog: io.Discard, CloseStore: true})
		if err := srv.Start(); err != nil {
			stack.Close()
			return nil, nil, nil, err
		}
		conn, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
		if err != nil {
			srv.Shutdown()
			return nil, nil, nil, err
		}
		r, w := wire.NewReader(conn, 0), wire.NewWriter(conn, 0)
		overWire := func() (float64, error) {
			req, rep := wire.Msg{Op: wire.OpGet}, wire.Msg{}
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			start := time.Now()
			for sent, got := 0, 0; got < groups; got++ {
				for ; sent < groups && sent-got < wireInflight; sent++ {
					for _, k := range keys[sent*cfg.Pipeline : (sent+1)*cfg.Pipeline] {
						req.Key = k
						if err := w.Write(&req); err != nil {
							return 0, err
						}
					}
					if err := w.Flush(); err != nil {
						return 0, err
					}
				}
				for i := 0; i < cfg.Pipeline; i++ {
					if err := r.ReadInto(&rep); err != nil {
						return 0, err
					}
					if rep.Op != wire.RValue {
						return 0, fmt.Errorf("bench: GET of a present key answered %s", rep.Op)
					}
				}
			}
			return float64(groups*cfg.Pipeline) / time.Since(start).Seconds(), nil
		}
		vals, oks := make([]lix.Value, cfg.Pipeline), make([]bool, cfg.Pipeline)
		inProcess := func() (float64, error) {
			start := time.Now()
			for g := 0; g < groups; g++ {
				stack.LookupBatch(keys[g*cfg.Pipeline:(g+1)*cfg.Pipeline], vals, oks, nil)
				for _, ok := range oks {
					if !ok {
						return 0, fmt.Errorf("bench: LookupBatch missed a present key")
					}
				}
			}
			return float64(groups*cfg.Pipeline) / time.Since(start).Seconds(), nil
		}
		return overWire, inProcess, func() { conn.Close(); srv.Shutdown() }, nil
	})
	if err != nil {
		return nil, nil, err
	}

	t := &Table{
		ID: "WIRE",
		Title: fmt.Sprintf("GETs over one loopback connection (groups of %d, %d in flight) vs the same stack's LookupBatch in process, n=%d, %d shards, median of %d rounds",
			cfg.Pipeline, wireInflight, cfg.N, cfg.Shards, abRounds),
		Columns: []string{"path", "Kops/s", "vs in-process"},
	}
	t.AddRow("in-process LookupBatch", inprocMed/1e3, "1.000")
	t.AddRow("wire GET", wireMed/1e3, fmt.Sprintf("%.3f", wireMed/inprocMed))
	return []*Table{t}, []floor{{name: "wire/get/pipeline", got: wireMed, ref: inprocMed, min: wireFloor}}, nil
}
