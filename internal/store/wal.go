package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"github.com/lix-go/lix/internal/obs"
)

// WAL on-disk format. A segment file is a 24-byte header followed by a
// stream of framed records:
//
//	header:  magic "LIXWAL01" | u64 generation | u32 segment | u32 CRC32C(gen, seg)
//	record:  u32 payload length | u32 CRC32C(payload) | payload
//	payload: u8 op | u64 seq | u64 key | u64 value (inserts only)
//
// All integers are little-endian. A record is committed iff its frame is
// fully present and its CRC validates; recovery truncates the segment at
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

// appendRecord encodes r's frame onto buf.
func appendRecord(buf []byte, r Record) []byte {
	var p [insertPayload]byte
	n := deletePayload
	p[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(p[1:], r.Seq)
	binary.LittleEndian.PutUint64(p[9:], r.Key)
	if r.Op == OpInsert {
		binary.LittleEndian.PutUint64(p[17:], r.Val)
		n = insertPayload
	}
	var hdr [walFrameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(p[:n], castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, p[:n]...)
}

// DecodeRecords scans a record stream (the segment body after the file
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

// WAL is one append-only segment file. Append serializes writers on an
// internal mutex; SyncTo implements batched group commit: concurrent
// callers queue on the sync mutex and every fsync covers all bytes
// written before it started, so followers whose offset is already durable
// return without issuing their own fsync.
type WAL struct {
	path string
	gen  uint64
	seg  int

	mu       sync.Mutex // serializes Append (encode + write + size)
	f        *os.File
	size     int64
	buf      []byte
	appended uint64

	syncMu  sync.Mutex // serializes fsync; the group-commit queue
	synced  int64      // bytes known durable
	fsyncs  uint64
	closed  bool
	syncErr error

	// Optional observability sinks, shared with the owning Durable.
	hook    *obs.Hook
	fsyncNS *obs.Histogram
}

// OpenWAL opens or creates the segment file at path, recovers its
// committed records, and truncates any torn or corrupt tail so appends
// continue from the last committed frame. A missing, empty or
// header-torn file is (re)initialized as an empty segment. It returns the
// WAL positioned for appending, the recovered records, and the number of
// tail bytes truncated.
func OpenWAL(path string, gen uint64, seg int, hook *obs.Hook, fsyncNS *obs.Histogram) (*WAL, []Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, err
	}
	recs, body, truncated := []Record(nil), 0, int64(0)
	fresh := !validWalHeader(data, gen, seg)
	if fresh {
		// Missing file, or a header torn by a crash at creation time: no
		// record can have committed, start the segment over.
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
	w := &WAL{
		path: path, gen: gen, seg: seg, f: f,
		size: int64(walHeaderSize + body),
		hook: hook, fsyncNS: fsyncNS,
	}
	return w, recs, truncated, nil
}

// readSegment decodes a segment file without opening it for appending or
// truncating it (used for read-only older generations during recovery).
// Torn tails are simply ignored.
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

// Append encodes and writes recs as one contiguous write, returning the
// logical end offset of the last record. It does not fsync; pair with
// SyncTo according to the configured policy.
func (w *WAL) Append(recs ...Record) (int64, error) {
	w.mu.Lock()
	w.buf = w.buf[:0]
	for _, r := range recs {
		w.buf = appendRecord(w.buf, r)
	}
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	off := w.size
	w.appended += uint64(len(recs))
	w.mu.Unlock()
	if err != nil {
		return off, fmt.Errorf("store: wal %s append: %w", w.path, err)
	}
	return off, nil
}

// SyncTo makes every byte up to off durable. Group commit: if a
// concurrent caller's fsync already covered off by the time the sync
// mutex is acquired, no additional fsync is issued.
func (w *WAL) SyncTo(off int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= off {
		return nil
	}
	if w.syncErr != nil {
		return w.syncErr
	}
	if w.closed {
		return fmt.Errorf("store: wal %s: sync after close", w.path)
	}
	w.mu.Lock()
	end := w.size
	w.mu.Unlock()
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.syncErr = fmt.Errorf("store: wal %s fsync: %w", w.path, err)
		return w.syncErr
	}
	elapsed := time.Since(start)
	w.fsyncs++
	covered := end - w.synced
	w.synced = end
	if w.fsyncNS != nil {
		w.fsyncNS.Observe(uint64(elapsed))
	}
	if w.hook != nil {
		w.hook.Emit(obs.EvWALFlush, int(covered), fmt.Sprintf("seg=%d", w.seg))
	}
	return nil
}

// Appended returns the number of records appended through this handle.
func (w *WAL) Appended() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Fsyncs returns the number of fsync calls issued.
func (w *WAL) Fsyncs() uint64 {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.fsyncs
}

// Size returns the logical file size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close fsyncs outstanding writes and closes the file. After Close,
// SyncTo returns nil for offsets the close covered.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.closed {
		return nil
	}
	w.mu.Lock()
	end := w.size
	w.mu.Unlock()
	var err error
	if w.synced < end && w.syncErr == nil {
		if err = w.f.Sync(); err == nil {
			w.synced = end
			w.fsyncs++
		}
	}
	w.closed = true
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash closes the file without syncing — a crash-simulation aid for
// tests and examples: whatever the OS has not yet flushed is exactly what
// a power loss at this instant would lose.
func (w *WAL) Crash() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}
