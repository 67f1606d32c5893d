package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// WAL on-disk format. A log file is a 24-byte header followed by a
// stream of framed records:
//
//	header:  magic "LIXWAL01" | u64 generation | u32 segment | u32 CRC32C(gen, seg)
//	record:  u32 payload length | u32 CRC32C(payload) | payload
//	payload: u8 op | u64 seq | u64 key | u64 value (inserts only)
//
// All integers are little-endian. A record is committed iff its frame is
// fully present and its CRC validates; recovery truncates the log at
// the first frame that is torn (short) or corrupt (CRC/shape mismatch)
// and keeps everything before it. Payload lengths are fixed per op (25
// bytes for inserts, 17 for deletes), so any CRC-valid frame re-encodes
// byte-identically — the property FuzzWALDecode pins.
const (
	walMagic      = "LIXWAL01"
	walHeaderSize = 8 + 8 + 4 + 4
	walFrameHdr   = 8 // u32 length + u32 crc

	insertPayload = 1 + 8 + 8 + 8
	deletePayload = 1 + 8 + 8

	// maxWalPayload bounds the decoder: any declared length beyond it is
	// corruption, not a huge record.
	maxWalPayload = 64
)

// appendRecord encodes r's frame onto buf. The payload is written in place
// and checksummed there: a payload on the stack would escape into the
// checksum's indirect call and cost an allocation per record.
func appendRecord(buf []byte, r Record) []byte {
	n := deletePayload
	if r.Op == OpInsert {
		n = insertPayload
	}
	at := len(buf)
	buf = append(buf, make([]byte, walFrameHdr+n)...)
	f := buf[at:]
	p := f[walFrameHdr:]
	p[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(p[1:], r.Seq)
	binary.LittleEndian.PutUint64(p[9:], r.Key)
	if r.Op == OpInsert {
		binary.LittleEndian.PutUint64(p[17:], r.Val)
	}
	binary.LittleEndian.PutUint32(f[0:], uint32(n))
	binary.LittleEndian.PutUint32(f[4:], crc32.Checksum(p, castagnoli))
	return buf
}

// DecodeRecords scans a record stream (the log body after the file
// header) and returns every leading committed record plus the byte offset
// of the first torn or corrupt frame (== len(buf) when the stream is
// clean). It never panics on arbitrary input and never returns a record
// whose CRC did not validate.
func DecodeRecords(buf []byte) ([]Record, int) {
	var out []Record
	off := 0
	for {
		if len(buf)-off < walFrameHdr {
			return out, off
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if n > maxWalPayload || len(buf)-off-walFrameHdr < n {
			return out, off
		}
		payload := buf[off+walFrameHdr : off+walFrameHdr+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			return out, off
		}
		r, ok := decodePayload(payload)
		if !ok {
			return out, off
		}
		out = append(out, r)
		off += walFrameHdr + n
	}
}

// decodePayload parses one CRC-validated payload, rejecting unknown ops
// and lengths that do not exactly match the op's fixed shape.
func decodePayload(p []byte) (Record, bool) {
	if len(p) < 1 {
		return Record{}, false
	}
	r := Record{Op: OpKind(p[0])}
	switch r.Op {
	case OpInsert:
		if len(p) != insertPayload {
			return Record{}, false
		}
		r.Val = binary.LittleEndian.Uint64(p[17:])
	case OpDelete:
		if len(p) != deletePayload {
			return Record{}, false
		}
	default:
		return Record{}, false
	}
	r.Seq = binary.LittleEndian.Uint64(p[1:])
	r.Key = binary.LittleEndian.Uint64(p[9:])
	return r, true
}

// logFile is what the log uses of its *os.File; the tests substitute one
// whose n-th write fails or comes up short.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

const (
	// walBufMax is the size at which the buffer commits itself, so memory
	// runs ahead of the file by a bounded number of bytes whoever forgets
	// to commit.
	walBufMax = 64 << 10
	// walChunk is how many records of a batch are framed per hold of the
	// buffer lock, which is what lets a batch of any size respect walBufMax.
	walChunk = 1024
)

// WAL is the append-only log of one generation, with a combining
// committer. Append frames records into an in-memory buffer and returns
// the logical offset of their end; Commit(off) returns once the file
// holds every byte up to off: the first committer to arrive writes the
// whole buffer with one write(2) (and fsyncs, when asked), those that
// queued behind it find their offset covered and return without a
// syscall. The first short or failed write, or failed fsync, is sticky:
// the frames behind a torn one would be cut off by recovery, so nothing
// is appended or committed after it.
type WAL struct {
	path string

	mu       sync.Mutex // the tail: buf, base, appended, err
	buf      []byte     // frames appended and not yet written
	base     int64      // logical offset of buf[0]; the log ends at base+len(buf)
	appended uint64
	err      error // sticky: the first failed write or fsync, or closed

	ioMu    sync.Mutex // serializes file I/O, the commit queue; taken before mu
	f       logFile
	spare   []byte       // the buffer not in use: the two swap at every commit
	written atomic.Int64 // bytes the file holds
	synced  atomic.Int64 // bytes known durable
	writes  atomic.Uint64
	fsyncs  atomic.Uint64
	closed  bool

	// Optional observability sinks, shared with the owning Durable.
	hook *obs.Hook
	m    *obs.Metrics
}

// OpenWAL opens or creates the log file at path, recovers its committed
// records, and truncates any torn or corrupt tail so appends continue
// from the last committed frame. A missing, empty or header-torn file is
// (re)initialized as an empty log. It returns the WAL positioned for
// appending, the recovered records, and the number of tail bytes
// truncated. seg is the header's segment field: 0 in every file this
// version writes.
func OpenWAL(path string, gen uint64, seg int, hook *obs.Hook, m *obs.Metrics) (*WAL, []Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, err
	}
	recs, body, truncated := []Record(nil), 0, int64(0)
	fresh := !validWalHeader(data, gen, seg)
	if fresh {
		// Missing file, or a header torn by a crash at creation time: no
		// record can have committed, start the log over.
		truncated = int64(len(data))
		if err := os.WriteFile(path, walHeader(gen, seg), 0o644); err != nil {
			return nil, nil, 0, err
		}
	} else {
		recs, body = DecodeRecords(data[walHeaderSize:])
		if end := walHeaderSize + body; end < len(data) {
			truncated = int64(len(data) - end)
			if err := os.Truncate(path, int64(end)); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	w := &WAL{path: path, f: f, base: int64(walHeaderSize + body), hook: hook, m: m}
	w.written.Store(w.base)
	return w, recs, truncated, nil
}

// readSegment decodes a log file without opening it for appending or
// truncating it (recovery, and the flush of retired generations). Torn
// tails are simply ignored.
func readSegment(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < walHeaderSize || string(data[:8]) != walMagic {
		return nil, int64(len(data)), nil
	}
	recs, body := DecodeRecords(data[walHeaderSize:])
	return recs, int64(len(data) - walHeaderSize - body), nil
}

func walHeader(gen uint64, seg int) []byte {
	h := make([]byte, walHeaderSize)
	copy(h, walMagic)
	binary.LittleEndian.PutUint64(h[8:], gen)
	binary.LittleEndian.PutUint32(h[16:], uint32(seg))
	binary.LittleEndian.PutUint32(h[20:], crc32.Checksum(h[8:20], castagnoli))
	return h
}

func validWalHeader(data []byte, gen uint64, seg int) bool {
	if len(data) < walHeaderSize || string(data[:8]) != walMagic {
		return false
	}
	if crc32.Checksum(data[8:20], castagnoli) != binary.LittleEndian.Uint32(data[20:]) {
		return false
	}
	return binary.LittleEndian.Uint64(data[8:]) == gen &&
		binary.LittleEndian.Uint32(data[16:]) == uint32(seg)
}

// begin takes mu for an append or a commit; on a log that has failed or is
// closed it returns that error with mu released.
func (w *WAL) begin() error {
	w.mu.Lock()
	if err := w.err; err != nil {
		w.mu.Unlock()
		return err
	}
	return nil
}

// appendedUnlock accounts for n records just framed, releases mu, and
// commits the buffer if it has reached walBufMax. It returns the log's end.
func (w *WAL) appendedUnlock(n int) (int64, error) {
	w.appended += uint64(n)
	off, full := w.base+int64(len(w.buf)), len(w.buf) >= walBufMax
	w.mu.Unlock()
	if full {
		return off, w.Commit(off, false, nil)
	}
	return off, nil
}

// Append frames recs into the buffer and returns the logical end offset of
// the last one; pair with Commit. On a log that has failed or is closed it
// buffers nothing and returns that error.
func (w *WAL) Append(recs ...Record) (int64, error) {
	if err := w.begin(); err != nil {
		return 0, err
	}
	for _, r := range recs {
		w.buf = appendRecord(w.buf, r)
	}
	return w.appendedUnlock(len(recs))
}

// opRecord returns op's log record (its Seq unset), false for a get, which
// logs nothing.
func opRecord(op core.Op) (Record, bool) {
	switch op.Kind {
	case core.OpPut:
		return Record{Op: OpInsert, Key: op.Key, Val: op.Val}, true
	case core.OpDel:
		return Record{Op: OpDelete, Key: op.Key}, true
	}
	return Record{}, false
}

// AppendBatch is Append for the writes of a batch: their records numbered
// from seq in input order, walChunk ops per hold of the buffer. An error
// part-way (only a self-commit can cause one) leaves the earlier chunks in
// the log; the caller applies nothing.
func (w *WAL) AppendBatch(ops []core.Op, seq uint64) error {
	for i, n := 0, len(ops); i < n; {
		if err := w.begin(); err != nil {
			return err
		}
		framed := 0
		for end := min(n, i+walChunk); i < end; i++ {
			if r, ok := opRecord(ops[i]); ok {
				r.Seq = seq
				w.buf = appendRecord(w.buf, r)
				seq++
				framed++
			}
		}
		if _, err := w.appendedUnlock(framed); err != nil {
			return err
		}
	}
	return nil
}

// covered reports whether the file holds (sync: durably) every byte up to
// off.
func (w *WAL) covered(off int64, sync bool) bool {
	if sync {
		return w.synced.Load() >= off
	}
	return w.written.Load() >= off
}

// Commit returns once the file holds every byte up to off, and with sync
// once they are durable. Concurrent committers combine: one of them writes
// everything buffered so far — one write(2), the span's wal stage — and
// fsyncs it (the fsync stage), and each one queued behind it whose offset
// that covered returns without a syscall, its wait in the stage it waited
// for.
func (w *WAL) Commit(off int64, sync bool, sp *core.Span) error {
	if w.covered(off, sync) {
		return nil
	}
	t0 := sp.Begin()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.covered(off, sync) {
		if sync {
			sp.End(core.StageFsync, t0)
		} else {
			sp.End(core.StageWAL, t0)
		}
		return nil
	}
	if err := w.begin(); err != nil {
		return err
	}
	buf := w.buf
	w.buf, w.base = w.spare[:0], w.base+int64(len(buf))
	w.mu.Unlock()
	if len(buf) > 0 {
		n, err := w.f.Write(buf)
		w.writes.Add(1)
		if w.m != nil {
			w.m.WALWrites.Inc()
			w.m.WALBytes.Add(uint64(n))
		}
		if err == nil && n < len(buf) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return w.fail(fmt.Errorf("store: wal %s write: %w", w.path, err))
		}
		w.written.Add(int64(n))
	}
	w.spare = buf[:0]
	sp.End(core.StageWAL, t0)
	if end := w.written.Load(); sync && w.synced.Load() < end {
		t0 = time.Now()
		if err := w.f.Sync(); err != nil {
			return w.fail(fmt.Errorf("store: wal %s fsync: %w", w.path, err))
		}
		elapsed := time.Since(t0)
		sp.Add(core.StageFsync, elapsed)
		w.fsyncs.Add(1)
		covered := end - w.synced.Swap(end)
		if w.m != nil {
			w.m.FsyncNS.Observe(uint64(elapsed))
		}
		if w.hook != nil {
			w.hook.Emit(obs.EvWALFlush, int(covered), "")
		}
	}
	return nil
}

// fail makes err the log's sticky error unless an earlier one is, drops
// the frames nobody will write now (their offsets stay handed out, so a
// Commit of one fails), and returns the sticky error.
func (w *WAL) fail(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	w.buf, w.base = nil, w.base+int64(len(w.buf))
	return w.err
}

// Appended returns the number of records appended through this handle.
func (w *WAL) Appended() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Writes returns the number of write(2) calls issued.
func (w *WAL) Writes() uint64 { return w.writes.Load() }

// Fsyncs returns the number of fsync calls issued.
func (w *WAL) Fsyncs() uint64 { return w.fsyncs.Load() }

// End returns the logical size in bytes: the file plus the buffer.
func (w *WAL) End() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base + int64(len(w.buf))
}

// Close commits and fsyncs what is buffered and closes the file. After
// Close, Commit returns nil for offsets the close covered.
func (w *WAL) Close() error {
	err := w.Commit(w.End(), true, nil)
	if cerr := w.release(); err == nil {
		err = cerr
	}
	return err
}

// Crash drops the buffer and closes the file without syncing — a
// crash-simulation aid for tests and examples: whatever the OS has not
// yet flushed is exactly what a power loss at this instant would lose.
func (w *WAL) Crash() error { return w.release() }

// release closes the file once; from then on the log refuses appends.
func (w *WAL) release() error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.fail(fmt.Errorf("store: wal %s: closed", w.path))
	return w.f.Close()
}
