package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/iotest"

	"github.com/lix-go/lix/internal/core"
)

// chunkReader hands src out in pieces of sizes[0], sizes[1], ... bytes
// (cycling, at least one byte each) and counts the calls, so a test can
// both fragment a stream and see whether a read reached the transport.
type chunkReader struct {
	src   []byte
	sizes []int
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.src) == 0 {
		return 0, io.EOF
	}
	n := max(1, min(c.sizes[(c.reads-1)%len(c.sizes)], len(p), len(c.src)))
	copy(p, c.src[:n])
	c.src = c.src[n:]
	return n, nil
}

// streamResult is one step of reading a stream: a message or an error.
type streamResult struct {
	msg Msg
	err error
}

// refStream is the oracle: it walks stream with explicit index arithmetic
// and runs Decode on a copy of each payload. The last result is always the
// error that ends the stream: io.EOF at a frame boundary,
// io.ErrUnexpectedEOF inside a header or payload, ErrFrameTooLarge at a
// length prefix past maxFrame. A malformed frame is consumed and the walk
// goes on behind it.
func refStream(stream []byte, maxFrame int) []streamResult {
	var out []streamResult
	for {
		switch {
		case len(stream) == 0:
			return append(out, streamResult{err: io.EOF})
		case len(stream) < HeaderLen:
			return append(out, streamResult{err: io.ErrUnexpectedEOF})
		}
		n := int(binary.BigEndian.Uint32(stream))
		if n > maxFrame {
			return append(out, streamResult{err: ErrFrameTooLarge})
		}
		if len(stream) < HeaderLen+n {
			return append(out, streamResult{err: io.ErrUnexpectedEOF})
		}
		m, err := Decode(bytes.Clone(stream[HeaderLen : HeaderLen+n]))
		if err != nil {
			err = ErrMalformed
		}
		out = append(out, streamResult{m, err})
		stream = stream[HeaderLen+n:]
	}
}

// checkStream reads stream through a Reader with a bufSize-byte read
// buffer (0: NewReader's own), fed in the given chunk sizes (nil: one byte per read, through
// iotest.OneByteReader), and holds every result to the oracle's. Frames
// alternate between Read and ReadInto into one reused, dirty Msg, so a
// field a decode fails to overwrite shows. Whenever FrameBuffered reports
// a frame, reading it must not reach the transport.
func checkStream(t *testing.T, stream []byte, maxFrame, bufSize int, sizes []int) {
	t.Helper()
	src := &chunkReader{src: stream, sizes: sizes}
	var in io.Reader = src
	if sizes == nil {
		src.sizes = []int{1 << 30}
		in = iotest.OneByteReader(src)
	}
	r := NewReader(in, maxFrame)
	if bufSize > 0 {
		r.br = bufio.NewReaderSize(in, bufSize)
	}
	var reused Msg
	for i, want := range refStream(stream, r.max) {
		buffered, before := r.FrameBuffered(), src.reads
		var got Msg
		var err error
		if i%2 == 0 {
			err = r.ReadInto(&reused)
			got = reused
		} else {
			got, err = r.Read()
		}
		if buffered && src.reads != before {
			t.Fatalf("frame %d (buf %d, chunks %v): FrameBuffered was true and the read went to the transport", i, bufSize, sizes)
		}
		switch {
		case want.err == nil:
			if err != nil || !reflect.DeepEqual(got, want.msg) {
				t.Fatalf("frame %d (buf %d, chunks %v): got %+v, %v; want %+v", i, bufSize, sizes, got, err, want.msg)
			}
		case want.err == io.EOF || want.err == io.ErrUnexpectedEOF:
			if err != want.err {
				t.Fatalf("frame %d (buf %d, chunks %v): err = %v, want bare %v", i, bufSize, sizes, err, want.err)
			}
		default:
			if !errors.Is(err, want.err) {
				t.Fatalf("frame %d (buf %d, chunks %v): err = %v, want %v", i, bufSize, sizes, err, want.err)
			}
		}
		if errors.Is(want.err, ErrFrameTooLarge) {
			// The payload is unread: the guard fires on the prefix alone,
			// so it keeps firing, and it never grew the payload buffer.
			if err := r.ReadInto(&reused); !errors.Is(err, ErrFrameTooLarge) || cap(r.buf) > r.max {
				t.Fatalf("frame %d: after ErrFrameTooLarge: err = %v, payload buffer %d bytes", i, err, cap(r.buf))
			}
		}
	}
}

// mixedStream is a pipelined stream with every frame shape the Reader
// treats differently: scalar frames, batch frames, an MSET of bigRecs
// records (chosen by the caller to exceed the read buffer), a malformed
// frame in the middle (consumed, the stream goes on), more frames behind.
func mixedStream(t testing.TB, bigRecs int) []byte {
	var s []byte
	add := func(m Msg) {
		var err error
		if s, err = AppendFrame(s, &m, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range canonMsgs() {
		add(m)
	}
	big := Msg{Op: OpMSet, Recs: make([]core.KV, bigRecs)}
	for i := range big.Recs {
		big.Recs[i] = core.KV{Key: core.Key(i), Value: core.Value(i * 3)}
	}
	add(big)
	add(Msg{Op: OpGet, Key: 1})
	s = append(s, 0, 0, 0, 2, 0x7f, 0x00) // complete frame, unknown opcode
	s = append(s, 0, 0, 0, 0)             // complete frame, empty payload
	add(Msg{Op: OpSet, Key: 2, Val: 3})
	add(Msg{Op: RErr, Err: "the end"})
	return s
}

// TestReaderStreamDifferential is the in-place Reader against Decode on a
// copied payload. With a 64-byte read buffer most frames straddle the
// buffer's end and the 5-record MSET exceeds it, which makes every byte
// split of the stream, every truncation of it (EOF at a boundary, inside
// a header, inside a payload) and an oversized prefix at every frame
// boundary cheap enough to try exhaustively; the production 64 KiB buffer
// gets one long stream under one-byte reads and seeded random chunkings.
func TestReaderStreamDifferential(t *testing.T) {
	const small = 64
	stream := mixedStream(t, 5)
	for cut := 0; cut <= len(stream); cut++ {
		checkStream(t, stream, 1<<10, small, []int{cut, 1 << 30})         // every byte split
		checkStream(t, stream[:cut], 1<<10, small, []int{1 << 30})        // every truncation
		checkStream(t, stream[:cut], 1<<10, small, []int{3, 1, 7, 2, 64}) // ... fragmented
	}
	checkStream(t, stream, 1<<10, small, nil)
	// A guard below the MSET's size: the stream ends there with
	// ErrFrameTooLarge, whatever the chunking.
	checkStream(t, stream, 64, small, []int{1 << 30})
	checkStream(t, stream, 64, small, []int{5, 1})
	checkStream(t, stream, 64, small, nil)

	// The production buffer: 64 KiB, an MSET of 5000 records (80 KB)
	// behind enough small frames that others straddle the buffer's end.
	var long []byte
	for len(long) < 100<<10 {
		long = append(long, stream...)
	}
	long = append(long, mixedStream(t, 5000)...)
	long = append(long, stream...)
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 8; round++ {
		sizes := make([]int, 1+rng.Intn(6))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(1<<uint(1+rng.Intn(17)))
		}
		checkStream(t, long, 0, 0, sizes)
		checkStream(t, long[:rng.Intn(len(long))], 0, 0, sizes)
	}
	checkStream(t, long, 0, 0, nil)
}

// scalarMsgs are the frames the serving path exchanges per request: the
// ones that must cost no allocation to read or to write.
func scalarMsgs() []Msg {
	return []Msg{
		{Op: OpGet, Key: 42}, {Op: OpSet, Key: 7, Val: 9000}, {Op: OpDel, Key: 3},
		{Op: RValue, Val: 77}, {Op: RNil}, {Op: ROK}, {Op: RBool, Ok: true},
	}
}

// loopback returns the two ends of a TCP connection over 127.0.0.1.
func loopback(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestReaderWriterAllocs pins the scalar path at zero allocations per
// frame, over an in-memory stream and over a real socket: Read, ReadInto
// and Writer.Write (flushes included) of every per-request frame shape.
// The Reader used to heap-allocate its 4-byte header on every frame.
func TestReaderWriterAllocs(t *testing.T) {
	const runs = 200
	msgs := scalarMsgs()
	var stream []byte
	for i := 0; i < 2*(runs+1); i++ { // AllocsPerRun makes runs+1 calls, twice
		for j := range msgs {
			stream, _ = AppendFrame(stream, &msgs[j], 0)
		}
	}
	client, server := loopback(t)
	if _, err := client.Write(stream); err != nil { // 27 KB: fits the socket buffers
		t.Fatal(err)
	}
	for name, src := range map[string]io.Reader{"bytes.Reader": bytes.NewReader(stream), "net.Conn": server} {
		r := NewReader(src, 0)
		var m Msg
		readInto := testing.AllocsPerRun(runs, func() {
			for range msgs {
				if err := r.ReadInto(&m); err != nil {
					t.Fatal(err)
				}
			}
		})
		read := testing.AllocsPerRun(runs, func() {
			for range msgs {
				var err error
				if m, err = r.Read(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if readInto != 0 || read != 0 {
			t.Errorf("%s: %v allocs per %d frames through ReadInto, %v through Read, want 0", name, readInto, len(msgs), read)
		}
	}

	// The far end drains into a fixed buffer, so the only allocations in
	// the process are the writer's.
	go func() {
		buf := make([]byte, 32<<10)
		for {
			if _, err := client.Read(buf); err != nil {
				return
			}
		}
	}()
	for name, dst := range map[string]io.Writer{"io.Discard": io.Discard, "net.Conn": server} {
		w := NewWriter(dst, 0)
		if got := testing.AllocsPerRun(runs, func() {
			for j := range msgs {
				if err := w.Write(&msgs[j]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: %v allocs per %d frames written and flushed, want 0", name, got, len(msgs))
		}
	}
}

// TestWriterSpill checks the frames that do not fit the write buffer's
// free space — one larger than the whole buffer, one that merely arrives
// when the buffer is nearly full — reach the stream intact and in order.
func TestWriterSpill(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(&sink, 0)
	small := Msg{Op: OpGet, Key: 9}
	mid := Msg{Op: OpMSet, Recs: make([]core.KV, 100)}   // 1.6 KB
	huge := Msg{Op: OpMSet, Recs: make([]core.KV, 5000)} // 80 KB, above the 64 KiB buffer
	var want []byte
	write := func(m *Msg) {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
		want, _ = AppendFrame(want, m, 0)
	}
	for w.Buffered() < 63<<10 {
		write(&small)
	}
	write(&mid)
	write(&huge)
	write(&small)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("spilled frames corrupted the stream: %d bytes written, %d expected", sink.Len(), len(want))
	}
}

func BenchmarkReaderReadInto(b *testing.B) {
	msgs := scalarMsgs()
	var stream []byte
	for len(stream) < 1<<20 {
		for j := range msgs {
			stream, _ = AppendFrame(stream, &msgs[j], 0)
		}
	}
	src := bytes.NewReader(stream)
	r := NewReader(src, 0)
	var m Msg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.ReadInto(&m); err == io.EOF {
			src.Reset(stream)
		} else if err != nil {
			b.Fatal(err)
		}
	}
}
