package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/lix-go/lix/internal/core"
)

// ServerError is an RErr reply surfaced as a Go error.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "lixserve: " + e.Msg }

// Client is a lixserve protocol client over one connection. All methods
// are safe for concurrent use, but calls are serialized on the single
// connection: use one Client per goroutine (or a pool) for parallel load,
// and Pipeline to amortize round-trips within one call.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	r       *Reader
	w       *Writer
	timeout time.Duration
}

// DialTimeout connects to a lixserve at addr with the given dial timeout,
// which also becomes the per-call I/O deadline (0 = no deadline).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewClient(conn, timeout), nil
}

// NewClient wraps an established connection (the net.Pipe-based tests use
// this directly). timeout is the per-call I/O deadline (0 = none).
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	return &Client{conn: conn, r: NewReader(conn, 0), w: NewWriter(conn, 0), timeout: timeout}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and reads its reply.
func (c *Client) Do(req Msg) (Msg, error) {
	reps, err := c.do([]Msg{req}, nil)
	if err != nil {
		return Msg{}, err
	}
	return reps[0], nil
}

// Pipeline writes every request as one pipelined group (a single flush),
// then reads exactly one reply per request, in order. reps reuses the
// caller's slice when it has capacity. An RErr reply is returned in-band
// (callers inspect reply opcodes); transport failures return an error and
// leave the connection unusable.
func (c *Client) Pipeline(reqs []Msg, reps []Msg) ([]Msg, error) {
	return c.do(reqs, reps)
}

func (c *Client) do(reqs []Msg, reps []Msg) ([]Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	for i := range reqs {
		if err := c.w.Write(&reqs[i]); err != nil {
			return nil, err
		}
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	reps = reps[:0]
	for range reqs {
		reps = append(reps, Msg{})
		if err := c.readReply(&reps[len(reps)-1]); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// readReply reads one logical reply into *m: a chunked SCAN answer
// (RKVsPart frames closed by a final RKVs) is reassembled into a single
// RKVs message, so Pipeline callers still see one reply per request.
func (c *Client) readReply(m *Msg) error {
	if err := c.r.ReadInto(m); err != nil || m.Op != RKVsPart {
		return err
	}
	recs := m.Recs
	for {
		if err := c.r.ReadInto(m); err != nil {
			return err
		}
		switch m.Op {
		case RKVsPart:
			recs = append(recs, m.Recs...)
		case RKVs:
			m.Recs = append(recs, m.Recs...)
			return nil
		default:
			// The stream is desynchronized: a chunk sequence must end in
			// RKVs before any other reply.
			return fmt.Errorf("%w: %s interrupts a chunked %s reply", ErrMalformed, m.Op, RKVs)
		}
	}
}

// expect returns an error unless the reply has one of the wanted opcodes;
// RErr becomes a *ServerError.
func expect(rep Msg, want ...Op) error {
	for _, w := range want {
		if rep.Op == w {
			return nil
		}
	}
	if rep.Op == RErr {
		return &ServerError{Msg: rep.Err}
	}
	return fmt.Errorf("wire: unexpected reply %s", rep.Op)
}

// Get returns the value stored for k.
func (c *Client) Get(k core.Key) (core.Value, bool, error) {
	rep, err := c.Do(Msg{Op: OpGet, Key: k})
	if err != nil {
		return 0, false, err
	}
	if err := expect(rep, RValue, RNil); err != nil {
		return 0, false, err
	}
	return rep.Val, rep.Op == RValue, nil
}

// Set upserts (k, v).
func (c *Client) Set(k core.Key, v core.Value) error {
	rep, err := c.Do(Msg{Op: OpSet, Key: k, Val: v})
	if err != nil {
		return err
	}
	return expect(rep, ROK)
}

// Del removes k, reporting whether it was present.
func (c *Client) Del(k core.Key) (bool, error) {
	rep, err := c.Do(Msg{Op: OpDel, Key: k})
	if err != nil {
		return false, err
	}
	if err := expect(rep, RBool); err != nil {
		return false, err
	}
	return rep.Ok, nil
}

// MGet resolves keys in one request; vals[i], oks[i] answer keys[i].
func (c *Client) MGet(keys []core.Key) ([]core.Value, []bool, error) {
	rep, err := c.Do(Msg{Op: OpMGet, Keys: keys})
	if err != nil {
		return nil, nil, err
	}
	if err := expect(rep, RValues); err != nil {
		return nil, nil, err
	}
	if len(rep.Vals) != len(keys) {
		return nil, nil, fmt.Errorf("wire: MGET of %d keys answered %d values", len(keys), len(rep.Vals))
	}
	return rep.Vals, rep.Oks, nil
}

// MSet upserts recs in one request (later-wins on duplicate keys).
func (c *Client) MSet(recs []core.KV) error {
	rep, err := c.Do(Msg{Op: OpMSet, Recs: recs})
	if err != nil {
		return err
	}
	return expect(rep, ROK)
}

// Scan returns up to limit records with lo <= key <= hi in ascending key
// order (limit 0 = the server's default cap).
func (c *Client) Scan(lo, hi core.Key, limit uint32) ([]core.KV, error) {
	rep, err := c.Do(Msg{Op: OpScan, Lo: lo, Hi: hi, Limit: limit})
	if err != nil {
		return nil, err
	}
	if err := expect(rep, RKVs); err != nil {
		return nil, err
	}
	if rep.Recs == nil {
		rep.Recs = []core.KV{}
	}
	return rep.Recs, nil
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	rep, err := c.Do(Msg{Op: OpPing})
	if err != nil {
		return err
	}
	return expect(rep, ROK)
}
