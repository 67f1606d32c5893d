// Serving: the pipelined TCP front-end over a sharded stack. An
// in-process server is started on an ephemeral port, a wire client talks
// to it, and the payoff of pipelining is shown directly: a pipelined
// burst of writes dispatches as ONE batch into the stack (one shard
// fan-out, and under -fsync=always one WAL group commit), where the same
// writes issued one at a time pay one round-trip and one dispatch each.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/wire"
)

const n = 1 << 17

func main() {
	recs := make([]lix.KV, n)
	for i := range recs {
		recs[i] = lix.KV{Key: lix.Key(i * 3), Value: lix.Value(i)}
	}
	m := lix.NewMetrics("serving-example")
	stack, err := lix.NewStack(recs, lix.StackConfig{Kind: "pgm-dynamic", Shards: 4, Metrics: m})
	if err != nil {
		panic(err)
	}
	srv := lix.NewServer(stack, lix.ServeConfig{Metrics: m, CloseStore: true})
	if err := srv.Start(); err != nil {
		panic(err)
	}
	defer srv.Shutdown()
	fmt.Printf("serving %d records on %s\n\n", stack.Len(), srv.Addr())

	c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// Point ops over the wire.
	v, ok, _ := c.Get(300)
	fmt.Printf("GET 300        -> (%d, %v)\n", v, ok)
	_ = c.Set(301, 9001)
	v, ok, _ = c.Get(301)
	fmt.Printf("SET+GET 301    -> (%d, %v)\n", v, ok)
	hits, _, _ := c.MGet([]core.Key{0, 1, 2, 3, 4, 5})
	fmt.Printf("MGET 6 keys    -> %d values\n", len(hits))
	span, _ := c.Scan(0, 60, 0)
	fmt.Printf("SCAN [0,60]    -> %d records\n\n", len(span))

	// Pipelining: the same 512 writes, one at a time vs one burst.
	const burst = 512
	start := time.Now()
	for i := 0; i < burst; i++ {
		if err := c.Set(lix.Key(1_000_000+i), lix.Value(i)); err != nil {
			panic(err)
		}
	}
	oneAtATime := time.Since(start)

	reqs := make([]wire.Msg, burst)
	for i := range reqs {
		reqs[i] = wire.Msg{Op: wire.OpSet, Key: lix.Key(2_000_000 + i), Val: lix.Value(i)}
	}
	start = time.Now()
	if _, err := c.Pipeline(reqs, nil); err != nil {
		panic(err)
	}
	pipelined := time.Since(start)

	fmt.Printf("%d writes, one round-trip each: %8s\n", burst, oneAtATime.Round(time.Microsecond))
	fmt.Printf("%d writes, one pipelined burst: %8s  (%.1fx)\n\n",
		burst, pipelined.Round(time.Microsecond), float64(oneAtATime)/float64(pipelined))

	// The server-side evidence: pipelined requests arrive in few groups,
	// and their replies leave in at most as many writes.
	snap := m.Snapshot()
	fmt.Printf("server saw %d requests in %d groups (mean group %.0f frames), answered in %d writes\n",
		snap.Counters["requests"], snap.Counters["groups"],
		float64(snap.Counters["requests"])/float64(snap.Counters["groups"]), snap.Counters["flushes"])
	fmt.Printf("insert p99 %s, get p99 %s\n",
		time.Duration(snap.Histograms["insert_ns"].P99),
		time.Duration(snap.Histograms["get_ns"].P99))
}
