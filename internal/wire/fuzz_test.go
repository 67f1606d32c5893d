package wire

import (
	"bytes"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the frame payload decoder. The
// invariants, in order of importance:
//
//  1. Decode never panics and never over-allocates: every slice it builds
//     is sized from the actual payload length, not the attacker-supplied
//     count (the strict count==body check enforces this).
//  2. Accepted payloads are canonical: re-encoding the decoded message
//     reproduces the input bytes exactly (Encode(Decode(x)) == x), and the
//     re-encoded frame decodes to the same message again.
//
// Runs in the CI fuzz smoke step alongside the WAL/snapshot fuzzers.
func FuzzWireDecode(f *testing.F) {
	for _, m := range canonMsgs() {
		b, err := AppendFrame(nil, &m, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[HeaderLen:])
	}
	// Hostile seeds: oversized counts, truncations, unknown opcodes.
	f.Add([]byte{})
	f.Add([]byte{0x04, 0xff, 0xff, 0xff, 0xff})             // MGET count 4G, empty body
	f.Add([]byte{0x05, 0x00, 0x00, 0x01, 0x00, 0xaa})       // MSET count 256, 1 byte
	f.Add([]byte{0x85, 0x7f, 0xff, 0xff, 0xff, 0x01, 0x02}) // VALUES huge count
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x00})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > DefaultMaxFrame {
			// The Reader's guard rejects these before Decode ever runs.
			return
		}
		m, err := Decode(payload)
		if err != nil {
			return
		}
		// Over-allocation guard: decoded element storage can never exceed
		// the bytes that backed it.
		if 8*len(m.Keys) > len(payload) || 16*len(m.Recs) > len(payload) ||
			9*len(m.Vals) > len(payload) || len(m.Err) > len(payload) {
			t.Fatalf("decoded slices larger than payload: %d bytes -> %d keys %d recs %d vals",
				len(payload), len(m.Keys), len(m.Recs), len(m.Vals))
		}
		re, err := AppendFrame(nil, &m, 0)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v (msg %+v)", err, m)
		}
		if !bytes.Equal(re[HeaderLen:], payload) {
			t.Fatalf("Encode(Decode(x)) != x\n  x: %x\n  re: %x", payload, re[HeaderLen:])
		}
		m2, err := Decode(re[HeaderLen:])
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if m2.Op != m.Op {
			t.Fatalf("re-decode changed opcode: %v -> %v", m.Op, m2.Op)
		}
	})
}

// FuzzReaderStream throws arbitrary bytes at the Reader as a *stream* —
// any number of frames, whole or cut short, fragmented by the transport in
// a pattern the input also chooses — through read buffers small enough
// that frames straddle their end or exceed them. The invariant is
// checkStream's: the in-place Reader yields exactly the messages and
// errors that Decode yields on a copy of each payload, ends on io.EOF,
// io.ErrUnexpectedEOF or ErrFrameTooLarge exactly where an index walk of
// the bytes does, and never goes to the transport for a frame it reported
// as buffered.
func FuzzReaderStream(f *testing.F) {
	f.Add(mixedStream(f, 5), []byte{3, 1, 7}, uint8(48))
	f.Add(mixedStream(f, 40), []byte{255}, uint8(0))
	f.Add([]byte{0, 0, 0, 9, 0x01, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0}, []byte{1}, uint8(0)) // GET, then half a header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01}, []byte{2}, uint8(16))                   // 4 GiB prefix
	f.Add([]byte{0, 0, 1, 1}, []byte{}, uint8(1))                                       // prefix one past the guard
	f.Fuzz(func(t *testing.T, stream, chunks []byte, buf uint8) {
		sizes := []int{1 << 30} // no chunks: whatever the reader asks for
		if len(chunks) > 0 {
			sizes = sizes[:0]
		}
		for _, c := range chunks {
			sizes = append(sizes, 1+int(c))
		}
		// bufio's minimum buffer is 16 bytes; 256 is the frame guard, so
		// buffers run from far below it to well above.
		checkStream(t, stream, 256, 16+2*int(buf), sizes)
	})
}
