package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

func testRecords(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Seq: uint64(i + 1), Op: OpInsert, Key: core.Key(i * 7), Val: core.Value(i)}
		if i%5 == 4 {
			out[i].Op = OpDelete
			out[i].Val = 0
		}
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.lix")
	w, recs, trunc, err := OpenWAL(path, 3, 1, nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(recs) != 0 || trunc != 0 {
		t.Fatalf("fresh segment: recs=%d trunc=%d", len(recs), trunc)
	}
	want := testRecords(100)
	for _, r := range want {
		if _, err := w.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, got, trunc, err := OpenWAL(path, 3, 1, nil, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if trunc != 0 {
		t.Fatalf("clean reopen truncated %d bytes", trunc)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestWALHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.lix")
	w, _, _, err := OpenWAL(path, 1, 0, nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	w.Append(testRecords(3)...)
	w.Close()

	// Opening with a different gen/seg identity must reinitialize, not
	// adopt the other segment's records.
	_, recs, trunc, err := OpenWAL(path, 2, 0, nil, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 0 || trunc == 0 {
		t.Fatalf("gen-mismatched segment not reinitialized: recs=%d trunc=%d", len(recs), trunc)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.lix")
	w, _, _, err := OpenWAL(path, 1, 0, nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := testRecords(10)
	w.Append(want...)
	w.Close()
	data, _ := os.ReadFile(path)

	// Chop off the last 5 bytes: the final frame is torn.
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	w2, recs, trunc, err := OpenWAL(path, 1, 0, nil, nil)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if len(recs) != len(want)-1 {
		t.Fatalf("torn tail: recovered %d records, want %d", len(recs), len(want)-1)
	}
	if trunc == 0 {
		t.Fatal("torn tail reported 0 truncated bytes")
	}
	// Appends must land after the truncation point and survive a reopen.
	extra := Record{Seq: 99, Op: OpInsert, Key: 1234, Val: 5678}
	if _, err := w2.Append(extra); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	w2.Close()
	_, recs, _, err = OpenWAL(path, 1, 0, nil, nil)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if len(recs) != len(want) || recs[len(recs)-1] != extra {
		t.Fatalf("append after truncation lost: %v", recs)
	}
}

func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.lix")
	w, _, _, _ := OpenWAL(path, 1, 0, nil, nil)
	w.Append(testRecords(20)...)
	w.Close()
	data, _ := os.ReadFile(path)

	// Flip one payload byte in the middle of the stream: everything from
	// that frame on is discarded, the prefix survives.
	pos := walHeaderSize + 5*(walFrameHdr+insertPayload) + walFrameHdr + 3
	data[pos] ^= 0xff
	os.WriteFile(path, data, 0o644)
	_, recs, trunc, err := OpenWAL(path, 1, 0, nil, nil)
	if err != nil {
		t.Fatalf("reopen corrupt: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("corrupt frame 5: recovered %d records, want 5", len(recs))
	}
	if trunc == 0 {
		t.Fatal("corruption reported 0 truncated bytes")
	}
}

func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.lix")
	w, _, _, err := OpenWAL(path, 1, 0, nil, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.Close()

	const writers, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				off, err := w.Append(Record{Seq: uint64(g*each + i + 1), Op: OpInsert, Key: core.Key(g), Val: core.Value(i)})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := w.Commit(off, true, nil); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if w.Appended() != writers*each {
		t.Fatalf("appended %d, want %d", w.Appended(), writers*each)
	}
	// Group commit: concurrent Commit calls share writes and fsyncs, so
	// neither count may exceed one per record.
	if f := w.Fsyncs(); f == 0 || f > writers*each {
		t.Fatalf("fsyncs %d out of range (0, %d]", f, writers*each)
	}
	if n := w.Writes(); n == 0 || n > writers*each {
		t.Fatalf("writes %d out of range (0, %d]", n, writers*each)
	}
}

func TestWALSyncAfterCloseCovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.lix")
	w, _, _, _ := OpenWAL(path, 1, 0, nil, nil)
	off, err := w.Append(Record{Seq: 1, Op: OpInsert, Key: 1, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A Commit racing a checkpoint rotation resolves via the close's fsync.
	if err := w.Commit(off, true, nil); err != nil {
		t.Fatalf("Commit after covering close: %v", err)
	}
	if err := w.Commit(off+1, true, nil); err == nil {
		t.Fatal("Commit beyond the close must fail")
	}
}

func TestDecodeRecordsReencode(t *testing.T) {
	var buf []byte
	for _, r := range testRecords(17) {
		buf = appendRecord(buf, r)
	}
	recs, off := DecodeRecords(buf)
	if off != len(buf) || len(recs) != 17 {
		t.Fatalf("clean stream: off=%d/%d recs=%d", off, len(buf), len(recs))
	}
	var re []byte
	for _, r := range recs {
		re = appendRecord(re, r)
	}
	if !bytes.Equal(re, buf) {
		t.Fatal("re-encode of decoded records differs from input")
	}
}
