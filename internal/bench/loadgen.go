package bench

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/wire"
)

// RunLoadgen drives a running lixserve at addr (lixbench -serve-addr) with
// the closed-loop wire client and prints what it sent: cfg.Workers
// connections (default 4), cfg.Pipeline requests per group (default 32),
// for cfg.Duration (default 5s), keys drawn from [0, 16*cfg.N) (default
// N 1M) to match lixserve -n preload. It is a smoke load, not a
// measurement: the repo benchmark's wire workloads measure the server from
// outside (benchmark/README.md).
func RunLoadgen(addr string, cfg Config) ([]*Table, error) {
	if addr == "" {
		return nil, fmt.Errorf("loadgen: no server address")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 32
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.N <= 0 {
		cfg.N = 1_000_000
	}
	ops, errs, elapsed, err := wireLoad(addr, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "L1",
		Title:   fmt.Sprintf("Wire serving: 95-5 closed loop over %d conns, pipeline depth %d", cfg.Workers, cfg.Pipeline),
		Columns: []string{"ops", "errors", "seconds", "Kops/s"},
	}
	t.AddRow(ops, errs, elapsed.Seconds(), float64(ops)/elapsed.Seconds()/1e3)
	return []*Table{t}, nil
}

// wireLoad is the closed-loop wire client: cfg.Workers connections to addr,
// each a decoupled sender/receiver pair that keeps pipelined groups of
// cfg.Pipeline requests (95% GET, 5% SET, uniform keys in [0, 16*cfg.N))
// in flight for cfg.Duration. Every connection sends at least one group,
// so a burst whose goroutines got no CPU before the deadline still reports
// the rate it ran at, never zero. It returns the replies received, how many
// of them were RErr, and the time from first send to last reply.
func wireLoad(addr string, cfg Config) (ops, errs uint64, elapsed time.Duration, err error) {
	conns := make([]net.Conn, 0, cfg.Workers)
	for len(conns) < cfg.Workers {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return 0, 0, 0, fmt.Errorf("loadgen: dial %s: %w", addr, err)
		}
		conns = append(conns, conn)
	}

	var nOps, nErrs atomic.Uint64
	var wg sync.WaitGroup
	connErrs := make(chan error, cfg.Workers)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for id, conn := range conns {
		wg.Add(1)
		go func(id int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			if err := driveConn(conn, cfg, id, deadline, &nOps, &nErrs); err != nil {
				connErrs <- fmt.Errorf("loadgen: conn %d: %w", id, err)
			}
		}(id, conn)
	}
	wg.Wait()
	close(connErrs)
	return nOps.Load(), nErrs.Load(), time.Since(start), <-connErrs
}

// driveConn runs one connection's sender/receiver pair until deadline.
func driveConn(conn net.Conn, cfg Config, id int, deadline time.Time, ops, errs *atomic.Uint64) error {
	// The sender never blocks on replies; up to cap(pending) groups ride
	// the connection at once, one entry per group sent.
	pending := make(chan struct{}, 64)
	sendErr := make(chan error, 1)

	go func() {
		defer close(pending)
		w := wire.NewWriter(conn, 0)
		r := rand.New(rand.NewSource(cfg.Seed + int64(id)*101))
		key := func() core.Key { return core.Key(r.Intn(cfg.N * 16)) }
		var m wire.Msg
		for sent := 0; sent == 0 || time.Now().Before(deadline); sent++ {
			for i := 0; i < cfg.Pipeline; i++ {
				if r.Float64() < 0.95 {
					m = wire.Msg{Op: wire.OpGet, Key: key()}
				} else {
					m = wire.Msg{Op: wire.OpSet, Key: key(), Val: core.Value(i)}
				}
				if err := w.Write(&m); err != nil {
					sendErr <- err
					return
				}
			}
			if err := w.Flush(); err != nil {
				sendErr <- err
				return
			}
			if sent == 0 {
				pending <- struct{}{} // room for 64: the first never waits
				continue
			}
			select {
			case pending <- struct{}{}:
			case <-time.After(time.Until(deadline)):
				return // receiver wedged past the deadline; stop sending
			}
		}
	}()

	rd := wire.NewReader(conn, 0)
	conn.SetReadDeadline(deadline.Add(10 * time.Second))
	var rep wire.Msg
	for range pending {
		for i := 0; i < cfg.Pipeline; i++ {
			if err := rd.ReadInto(&rep); err != nil {
				return err
			}
			if rep.Op == wire.RErr {
				errs.Add(1)
			}
			ops.Add(1)
		}
	}
	select {
	case err := <-sendErr:
		return err
	default:
		return nil
	}
}
