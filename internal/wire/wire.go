// Package wire is the lixserve wire protocol: a length-prefixed binary
// frame codec shared by the server (internal/serve) and the client side
// (Client here, the lixbench load generator, tests).
//
// Frame layout:
//
//	+----------------+---------------------------+
//	| len uint32 BE  | payload (len bytes)       |
//	+----------------+---------------------------+
//	payload = opcode byte | op-specific body
//
// The length prefix counts the payload only (opcode included). All
// integers are big-endian; keys and values are the library's uint64 Key
// and Value. The codec is strict: Decode rejects unknown opcodes, short
// bodies, trailing bytes and element counts that disagree with the
// payload length, so Encode(Decode(p)) == p holds for every frame Decode
// accepts (FuzzWireDecode pins this).
//
// Requests and replies share the frame format; replies have the high bit
// of the opcode set. Pipelining is plain frame concatenation: a client
// may write any number of request frames before reading, and the server
// answers every request in request order. Every request draws exactly one
// logical reply; SCAN is the one op whose reply may span several frames —
// zero or more RKVsPart chunks closed by a final RKVs — so a result set
// larger than the frame guard streams instead of failing. Client
// reassembles the chunks transparently.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/lix-go/lix/internal/core"
)

// Op is a frame opcode. Requests have the high bit clear, replies have it
// set.
type Op uint8

// Request opcodes.
const (
	OpGet  Op = 0x01 // key(8) -> RValue | RNil
	OpSet  Op = 0x02 // key(8) val(8) -> ROK
	OpDel  Op = 0x03 // key(8) -> RBool
	OpMGet Op = 0x04 // n(4) keys(8n) -> RValues
	OpMSet Op = 0x05 // n(4) (key,val)(16n) -> ROK
	OpScan Op = 0x06 // lo(8) hi(8) limit(4) -> RKVsPart* RKVs
	OpPing Op = 0x07 // empty -> ROK
)

// Reply opcodes.
const (
	RValue  Op = 0x81 // val(8): point lookup hit
	RNil    Op = 0x82 // empty: point lookup miss
	ROK     Op = 0x83 // empty: write/ping acknowledged
	RBool   Op = 0x84 // b(1): delete outcome
	RValues Op = 0x85 // n(4) (ok(1) val(8))n: MGet answers, input order
	RKVs    Op = 0x86 // n(4) (key,val)(16n): Scan results, ascending
	RErr    Op = 0x87 // utf-8 message
	// RKVsPart is a non-final chunk of a Scan reply (same body as RKVs):
	// the records so far, continued by more RKVsPart frames or closed by
	// the final RKVs. Chunks concatenate in ascending key order.
	RKVsPart Op = 0x88
)

// String returns the protocol name of the opcode.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpMGet:
		return "MGET"
	case OpMSet:
		return "MSET"
	case OpScan:
		return "SCAN"
	case OpPing:
		return "PING"
	case RValue:
		return "VALUE"
	case RNil:
		return "NIL"
	case ROK:
		return "OK"
	case RBool:
		return "BOOL"
	case RValues:
		return "VALUES"
	case RKVs:
		return "KVS"
	case RKVsPart:
		return "KVSPART"
	case RErr:
		return "ERR"
	}
	return fmt.Sprintf("Op(0x%02x)", uint8(o))
}

// IsReply reports whether o is a reply opcode.
func (o Op) IsReply() bool { return o&0x80 != 0 }

// HeaderLen is the frame header size: the uint32 payload length.
const HeaderLen = 4

// DefaultMaxFrame is the frame-size guard applied when a Reader or server
// is configured with zero: 1 MiB, comfortably above a 4096-record MSET
// and small enough that a hostile length prefix cannot balloon memory.
const DefaultMaxFrame = 1 << 20

// Protocol errors.
var (
	// ErrFrameTooLarge reports a length prefix exceeding the reader's
	// maximum. The oversized payload has NOT been consumed; the stream is
	// desynchronized and the connection must be closed.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrMalformed reports a payload that does not decode. The frame
	// itself was consumed, but a server must still close the connection:
	// request/reply pairing inside a pipelined group is no longer
	// trustworthy.
	ErrMalformed = errors.New("wire: malformed frame")
)

// Msg is the decoded form of one frame. Op selects which fields are
// meaningful; Decode leaves the rest at their zero values so that decoded
// messages compare equal to the canonical Msg that encodes to the same
// bytes.
type Msg struct {
	Op Op

	// Key is the OpGet/OpSet/OpDel subject.
	Key core.Key
	// Val is the OpSet payload and the RValue answer.
	Val core.Value
	// Ok is the RBool outcome.
	Ok bool
	// Lo, Hi bound an OpScan (inclusive).
	Lo, Hi core.Key
	// Limit caps OpScan results (0 = server default cap).
	Limit uint32
	// Keys are the OpMGet subjects.
	Keys []core.Key
	// Recs are the OpMSet payload and the RKVs answer.
	Recs []core.KV
	// Vals and Oks are the RValues answer: Vals[i], Oks[i] answer the
	// request's Keys[i].
	Vals []core.Value
	Oks  []bool
	// Err is the RErr message.
	Err string
}

// AppendFrame appends the encoded frame (header + payload) for m to dst
// and returns the extended slice. It fails if the message does not fit in
// maxFrame (0 selects DefaultMaxFrame), mirroring the decoder's guard.
func AppendFrame(dst []byte, m *Msg, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	n := payloadLen(m)
	if n < 0 {
		return dst, fmt.Errorf("%w: cannot encode opcode %s", ErrMalformed, m.Op)
	}
	if n > maxFrame {
		return dst, fmt.Errorf("%w: %d byte payload, max %d", ErrFrameTooLarge, n, maxFrame)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, byte(m.Op))
	switch m.Op {
	case OpGet, OpDel:
		dst = binary.BigEndian.AppendUint64(dst, m.Key)
	case OpSet:
		dst = binary.BigEndian.AppendUint64(dst, m.Key)
		dst = binary.BigEndian.AppendUint64(dst, m.Val)
	case OpMGet:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Keys)))
		for _, k := range m.Keys {
			dst = binary.BigEndian.AppendUint64(dst, k)
		}
	case OpMSet, RKVs, RKVsPart:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Recs)))
		for _, r := range m.Recs {
			dst = binary.BigEndian.AppendUint64(dst, r.Key)
			dst = binary.BigEndian.AppendUint64(dst, r.Value)
		}
	case OpScan:
		dst = binary.BigEndian.AppendUint64(dst, m.Lo)
		dst = binary.BigEndian.AppendUint64(dst, m.Hi)
		dst = binary.BigEndian.AppendUint32(dst, m.Limit)
	case OpPing, RNil, ROK:
		// opcode only
	case RValue:
		dst = binary.BigEndian.AppendUint64(dst, m.Val)
	case RBool:
		b := byte(0)
		if m.Ok {
			b = 1
		}
		dst = append(dst, b)
	case RValues:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Vals)))
		for i, v := range m.Vals {
			b := byte(0)
			if m.Oks[i] {
				b = 1
			}
			dst = append(dst, b)
			dst = binary.BigEndian.AppendUint64(dst, v)
		}
	case RErr:
		dst = append(dst, m.Err...)
	}
	return dst, nil
}

// payloadLen returns the encoded payload size of m, or -1 for an
// unencodable message (unknown opcode, RValues with mismatched slices).
func payloadLen(m *Msg) int {
	switch m.Op {
	case OpGet, OpDel:
		return 1 + 8
	case OpSet:
		return 1 + 16
	case OpMGet:
		return 1 + 4 + 8*len(m.Keys)
	case OpMSet, RKVs, RKVsPart:
		return 1 + 4 + 16*len(m.Recs)
	case OpScan:
		return 1 + 20
	case OpPing, RNil, ROK:
		return 1
	case RValue:
		return 1 + 8
	case RBool:
		return 1 + 1
	case RValues:
		if len(m.Vals) != len(m.Oks) {
			return -1
		}
		return 1 + 4 + 9*len(m.Vals)
	case RErr:
		return 1 + len(m.Err)
	}
	return -1
}

// Decode decodes one frame payload (the bytes after the length prefix).
// It is strict: every byte must be consumed and every element count must
// match the payload length exactly, so a malicious count can never drive
// an allocation past the payload the caller already bounded.
func Decode(payload []byte) (Msg, error) {
	var m Msg
	if err := decodeInto(&m, payload); err != nil {
		return Msg{}, err
	}
	return m, nil
}

// decodeInto is the one decoder, behind Decode and Reader.ReadInto. It
// overwrites every field of *m and keeps no reference to payload: scalar
// fields are copied out, the MGET/MSET/VALUES/KVS slices and the ERR
// string are freshly allocated. On error *m holds a partial decode.
func decodeInto(m *Msg, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty payload", ErrMalformed)
	}
	*m = Msg{Op: Op(payload[0])}
	body := payload[1:]
	fixed := func(n int) error {
		if len(body) != n {
			return fmt.Errorf("%w: %s wants %d body bytes, got %d", ErrMalformed, m.Op, n, len(body))
		}
		return nil
	}
	counted := func(entry int) (int, error) {
		if len(body) < 4 {
			return 0, fmt.Errorf("%w: %s body shorter than its count", ErrMalformed, m.Op)
		}
		n := int(binary.BigEndian.Uint32(body))
		body = body[4:]
		if entry*n != len(body) || n < 0 {
			return 0, fmt.Errorf("%w: %s count %d disagrees with %d body bytes",
				ErrMalformed, m.Op, n, len(body))
		}
		return n, nil
	}
	switch m.Op {
	case OpGet, OpDel:
		if err := fixed(8); err != nil {
			return err
		}
		m.Key = binary.BigEndian.Uint64(body)
	case OpSet:
		if err := fixed(16); err != nil {
			return err
		}
		m.Key = binary.BigEndian.Uint64(body)
		m.Val = binary.BigEndian.Uint64(body[8:])
	case OpMGet:
		n, err := counted(8)
		if err != nil {
			return err
		}
		m.Keys = make([]core.Key, n)
		for i := range m.Keys {
			m.Keys[i] = binary.BigEndian.Uint64(body[8*i:])
		}
	case OpMSet, RKVs, RKVsPart:
		n, err := counted(16)
		if err != nil {
			return err
		}
		m.Recs = make([]core.KV, n)
		for i := range m.Recs {
			m.Recs[i].Key = binary.BigEndian.Uint64(body[16*i:])
			m.Recs[i].Value = binary.BigEndian.Uint64(body[16*i+8:])
		}
	case OpScan:
		if err := fixed(20); err != nil {
			return err
		}
		m.Lo = binary.BigEndian.Uint64(body)
		m.Hi = binary.BigEndian.Uint64(body[8:])
		m.Limit = binary.BigEndian.Uint32(body[16:])
	case OpPing, RNil, ROK:
		if err := fixed(0); err != nil {
			return err
		}
	case RValue:
		if err := fixed(8); err != nil {
			return err
		}
		m.Val = binary.BigEndian.Uint64(body)
	case RBool:
		if err := fixed(1); err != nil {
			return err
		}
		if body[0] > 1 {
			return fmt.Errorf("%w: BOOL byte 0x%02x", ErrMalformed, body[0])
		}
		m.Ok = body[0] == 1
	case RValues:
		n, err := counted(9)
		if err != nil {
			return err
		}
		m.Vals = make([]core.Value, n)
		m.Oks = make([]bool, n)
		for i := range m.Vals {
			b := body[9*i]
			if b > 1 {
				return fmt.Errorf("%w: VALUES ok byte 0x%02x", ErrMalformed, b)
			}
			m.Oks[i] = b == 1
			m.Vals[i] = binary.BigEndian.Uint64(body[9*i+1:])
		}
	case RErr:
		m.Err = string(body)
	default:
		return fmt.Errorf("%w: unknown opcode 0x%02x", ErrMalformed, payload[0])
	}
	return nil
}

// Reader decodes frames from a stream, enforcing the max-frame guard
// before any payload allocation. It buffers the underlying stream and
// decodes a frame where it landed in that buffer; use FrameBuffered to
// drain already-received pipelined frames without blocking.
type Reader struct {
	br  *bufio.Reader
	max int
	buf []byte // payload copy of a frame larger than br's buffer, reused

	// Decode timing for request tracing: when enabled, a read accumulates
	// the time spent parsing payloads (io wait excluded — the tracer
	// wants CPU attribution, not how long the client took to send).
	timing   bool
	decodeNS int64
}

// SetTiming enables or disables decode timing. Off (the default) costs
// nothing; on, each read adds one monotonic-clock pair around the decode.
func (r *Reader) SetTiming(on bool) { r.timing = on }

// TakeDecodeNS returns the decode nanoseconds accumulated since the last
// call and resets the accumulator. Serving loops call it once per
// pipelined group to attribute parse time to that group's span.
func (r *Reader) TakeDecodeNS() int64 {
	ns := r.decodeNS
	r.decodeNS = 0
	return ns
}

// NewReader returns a Reader over r with the given frame-size guard
// (0 selects DefaultMaxFrame).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{br: bufio.NewReaderSize(r, 64<<10), max: maxFrame}
}

// Read is ReadInto returning the message by value (the zero Msg on
// error). The result is named so the frame decodes into the caller's slot
// and is not copied on return.
func (r *Reader) Read() (m Msg, err error) {
	if err = r.ReadInto(&m); err != nil {
		m = Msg{}
	}
	return m, err
}

// ReadInto reads the next frame and decodes it into *m, blocking until one
// arrives; on error the contents of *m are unspecified. A length prefix
// past the guard returns ErrFrameTooLarge with nothing consumed and
// nothing allocated; a payload that does not decode returns ErrMalformed
// with the frame consumed. The frame is parsed in place in the read buffer
// (a frame larger than that buffer is copied out first) and the view dies
// with the call: *m owns nothing of it. Scalar frames allocate nothing
// (TestReaderWriterAllocs); the slices of an MGET/MSET/VALUES/KVS message
// are fresh and stay valid after the next read.
func (r *Reader) ReadInto(m *Msg) error {
	hdr, err := r.br.Peek(HeaderLen)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > r.max {
		return fmt.Errorf("%w: %d bytes, max %d", ErrFrameTooLarge, n, r.max)
	}
	var payload []byte
	if total := HeaderLen + n; total <= r.br.Size() {
		frame, err := r.br.Peek(total)
		if err != nil {
			return midFrame(err)
		}
		payload = frame[HeaderLen:]
		// Discard only moves the read offset: payload stays intact until
		// the next call that fills the buffer, which is after the decode.
		r.br.Discard(total)
	} else {
		r.br.Discard(HeaderLen)
		if cap(r.buf) < n {
			r.buf = make([]byte, n)
		}
		payload = r.buf[:n]
		if _, err := io.ReadFull(r.br, payload); err != nil {
			return midFrame(err)
		}
	}
	if !r.timing {
		return decodeInto(m, payload)
	}
	t0 := time.Now()
	err = decodeInto(m, payload)
	r.decodeNS += time.Since(t0).Nanoseconds()
	return err
}

// midFrame is the error of a read that stopped inside a frame: the
// stream's EOF there is unexpected, anything else is itself.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// FrameBuffered reports whether a complete frame is already buffered, so
// the next Read is guaranteed not to block. Pipelined servers use it to
// gather a request group: read one frame (blocking), then keep reading
// while FrameBuffered holds.
func (r *Reader) FrameBuffered() bool {
	if r.br.Buffered() < HeaderLen {
		return false
	}
	hdr, err := r.br.Peek(HeaderLen)
	if err != nil {
		return false
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > r.max {
		// An oversized prefix is fully "available": Read will fail fast
		// without blocking, and the caller must see that error now rather
		// than leave poison for the next group.
		return true
	}
	return r.br.Buffered() >= HeaderLen+n
}

// Writer encodes frames onto a buffered stream. Frames accumulate in the
// buffer until Flush, which is what turns a batch of replies (or a
// pipelined group of requests) into one large write.
type Writer struct {
	bw  *bufio.Writer
	max int
	buf []byte // encode buffer of a frame larger than the space left in bw, reused
}

// NewWriter returns a Writer over w with the given frame-size guard
// (0 selects DefaultMaxFrame).
func NewWriter(w io.Writer, maxFrame int) *Writer {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10), max: maxFrame}
}

// Write encodes m into the buffer, in place: the frame is appended to the
// buffer's own free space, with no copy and no allocation, unless it does
// not fit there. The bytes reach the stream on Flush (or when the buffer
// fills).
func (w *Writer) Write(m *Msg) error {
	dst := w.bw.AvailableBuffer()
	if n := HeaderLen + payloadLen(m); n > cap(dst) && n <= HeaderLen+w.max {
		if cap(w.buf) < n {
			w.buf = make([]byte, 0, n)
		}
		dst = w.buf
	}
	b, err := AppendFrame(dst, m, w.max)
	if err != nil {
		return err
	}
	_, err = w.bw.Write(b)
	return err
}

// Buffered returns the number of encoded bytes waiting for Flush.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

// Flush writes the buffered frames to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }
