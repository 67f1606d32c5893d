package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/lix-go/lix/internal/wire"
)

// client is one connection to the child server, driven through the frame
// codec only (wire.Reader / wire.Writer / wire.Msg).
type client struct {
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: wire.NewReader(conn, 0), w: wire.NewWriter(conn, 0)}, nil
}

func (c *client) close() { c.conn.Close() }

func request(o op) wire.Msg {
	switch o.code {
	case opGet:
		return wire.Msg{Op: wire.OpGet, Key: o.key}
	case opSet:
		return wire.Msg{Op: wire.OpSet, Key: o.key, Val: mix(o.key)}
	case opDel:
		return wire.Msg{Op: wire.OpDel, Key: o.key}
	default:
		return wire.Msg{Op: wire.OpScan, Lo: o.key, Hi: math.MaxUint64, Limit: scanLimit}
	}
}

// send writes ops as one pipelined group (a single flush).
func (c *client) send(ops []op) error {
	for _, o := range ops {
		m := request(o)
		if err := c.w.Write(&m); err != nil {
			return err
		}
	}
	return c.w.Flush()
}

// recv reads one reply per op, in order, and has w check each.
func (c *client) recv(w *worker, ops []op) error {
	for _, o := range ops {
		m, err := c.r.Read()
		if err != nil {
			return err
		}
		switch {
		case o.code == opGet && m.Op == wire.RValue:
			w.checkGet(o, m.Val, true)
		case o.code == opGet && m.Op == wire.RNil:
			w.checkGet(o, 0, false)
		case o.code == opSet && m.Op == wire.ROK:
			w.checkSet(o)
		case o.code == opDel && m.Op == wire.RBool:
			w.checkDel(o, m.Ok)
		case o.code == opScan && (m.Op == wire.RKVs || m.Op == wire.RKVsPart):
			sc := w.beginScan(o)
			for {
				for _, kv := range m.Recs {
					sc.visit(kv.Key, kv.Value)
				}
				if m.Op == wire.RKVs {
					break
				}
				if m, err = c.r.Read(); err != nil {
					return err
				}
				if m.Op != wire.RKVs && m.Op != wire.RKVsPart {
					return fmt.Errorf("reply %s interrupts a chunked scan", m.Op)
				}
			}
			sc.end()
		default: // RErr or a reply of the wrong kind
			w.bad()
		}
	}
	return nil
}

// closedLoop keeps inflightGroups groups of pipelineDepth requests in flight
// until the window of sl ends: a new group is sent each time the oldest one is
// fully answered and checked, so the server always has work queued and the
// rate does not hang on how fast the two processes wake each other. After
// every wireRefEvery-th group the reference implementation runs that group's
// operations; the server works on the queued groups meanwhile, so the
// program's time for wireRefEvery groups is all the time that passes.
func (c *client) closedLoop(w *worker, sl *slices) error {
	end := sl.end()
	var flying [][]op
	last := time.Now()
	for g, sending := 1, true; sending || len(flying) > 0; g++ {
		for sending && len(flying) < inflightGroups {
			ops := w.take(pipelineDepth)
			if err := c.send(ops); err != nil {
				return err
			}
			flying = append(flying, ops)
		}
		if err := c.recv(w, flying[0]); err != nil {
			return err
		}
		now := time.Now()
		if g%wireRefEvery == 0 {
			for _, o := range flying[0] {
				w.refApply(o)
			}
			t1 := time.Now()
			sl.addTimes(t1, t1.Sub(last), wireRefEvery*t1.Sub(now))
			now, last = t1, t1
		}
		sl.addOps(now, len(flying[0]))
		flying = flying[:copy(flying, flying[1:])]
		sending = now.Before(end)
	}
	return nil
}

// pacedStats is what the open-loop phase measured.
type pacedStats struct {
	due, sent int       // groups scheduled inside the window, groups sent by its end
	late      []float64 // how late each group left, microseconds
	overTight int64     // requests answered later than tightLimit after they were due
}

// waitUntil returns at `due`, not a timer tick later. Go's timers wake about a
// millisecond late, so it sleeps in the kernel (nanosleep, on a thread whose
// timer slack the caller has set to the minimum) until `spin` before the due
// time and polls the clock for the rest. The calling goroutine is locked to its
// thread.
func waitUntil(due time.Time, spin time.Duration) {
	if d := time.Until(due) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(due) {
	}
}

// paced is the open loop: groups of pacedGroup requests leave on a fixed
// schedule, one every `interval`, whether or not earlier groups were answered.
// The sender never waits for a reply, so a server stall cannot slow the
// schedule. It can only be late through a full socket buffer or its own
// preemption, and that lateness is recorded per group. The caller's goroutine
// receives and checks the replies. A group's latency runs from its due time
// (fromDue, which also holds the throughput); fromSend has the same requests
// timed from the moment they were written, as a diagnostic.
func (s *session) paced(fromDue, fromSend *slices, interval time.Duration) (pacedStats, error) {
	var st pacedStats
	start, end := fromDue.start, fromDue.end()
	st.due = int(end.Sub(start) / interval)
	spin := min(pacedSpin, interval/2)
	groups := make([][]op, st.due)
	for g := range groups {
		groups[g] = s.w.take(pacedGroup)
	}
	type stamp struct{ due, sent time.Time }
	// One entry per group, so the sender never waits for the receiver.
	stamps := make(chan stamp, st.due)

	var sendErr error
	var sender sync.WaitGroup
	sender.Add(1)
	go func() {
		defer sender.Done()
		defer close(stamps)
		// The thread is never unlocked, so it ends with this goroutine and
		// its timer slack goes with it.
		runtime.LockOSThread()
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		for g := range groups {
			due := start.Add(time.Duration(g) * interval)
			waitUntil(due, spin)
			now := time.Now()
			st.late = append(st.late, float64(now.Sub(due).Nanoseconds())/1e3)
			if now.Before(end) {
				st.sent++
			}
			if sendErr = s.c.send(groups[g]); sendErr != nil {
				s.c.close() // unblocks the receiver
				return
			}
			stamps <- stamp{due, now}
		}
	}()

	var recvErr error
	g := 0
	for sp := range stamps {
		if recvErr != nil {
			continue // drain so the sender can finish
		}
		if recvErr = s.c.recv(s.w, groups[g]); recvErr != nil {
			s.c.close() // unblocks the sender
			continue
		}
		g++
		now := time.Now()
		fromDue.addLat(sp.due, now.Sub(sp.due))
		fromDue.addOps(sp.due, pacedGroup)
		fromSend.addLat(sp.due, now.Sub(sp.sent))
		if now.Sub(sp.due) > tightLimit {
			st.overTight += pacedGroup
		}
	}
	sender.Wait()
	if sendErr != nil {
		return st, sendErr
	}
	return st, recvErr
}
