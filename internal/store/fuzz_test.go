package store

import (
	"bytes"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// FuzzWALDecode throws arbitrary bytes at the WAL record decoder. The
// decoder must never panic, must never return a record whose CRC did not
// validate — pinned here through the re-encode property: because payload
// shapes are fixed per op, every accepted record re-encodes
// byte-identically, so the accepted prefix must reproduce the input
// bytes exactly — and must report a truncation offset inside the buffer.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	for _, r := range []Record{
		{Seq: 1, Op: OpInsert, Key: 10, Val: 20},
		{Seq: 2, Op: OpDelete, Key: 10},
		{Seq: 3, Op: OpInsert, Key: ^core.Key(0), Val: ^core.Value(0)},
	} {
		seed = appendRecord(seed, r)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])       // torn tail
	f.Add(append(seed, 0xde, 0xad)) // trailing garbage
	corrupted := append([]byte(nil), seed...)
	corrupted[walFrameHdr+2] ^= 0xff // corrupt first payload
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off := DecodeRecords(data)
		if off < 0 || off > len(data) {
			t.Fatalf("offset %d outside buffer of %d bytes", off, len(data))
		}
		var re []byte
		for _, r := range recs {
			if r.Op != OpInsert && r.Op != OpDelete {
				t.Fatalf("decoder returned unknown op %d", r.Op)
			}
			re = appendRecord(re, r)
		}
		if !bytes.Equal(re, data[:off]) {
			t.Fatalf("accepted records do not re-encode to the accepted prefix:\n got %x\nwant %x", re, data[:off])
		}
		// Decoding the accepted prefix again must be a fixpoint.
		recs2, off2 := DecodeRecords(data[:off])
		if off2 != off || len(recs2) != len(recs) {
			t.Fatalf("re-decode of accepted prefix: %d recs @%d, want %d @%d", len(recs2), off2, len(recs), off)
		}
	})
}

// FuzzSnapshotDecode throws arbitrary bytes at the snapshot codec: it
// must never panic and, when it does accept, re-encoding must reproduce
// an equivalent snapshot.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSnapshot(&SnapshotData{}))
	f.Add(encodeSnapshot(&SnapshotData{
		Meta:    map[string]string{"kind": "btree"},
		LastSeq: 9,
		Runs:    []RunRef{{ID: 2, Live: 5, Seq: 9, MinKey: 1, MaxKey: 3}, {ID: 1, Live: 1, Dead: 1, Seq: 4}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Accepted snapshots must round-trip.
		s2, err := DecodeSnapshot(encodeSnapshot(s))
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot rejected: %v", err)
		}
		if len(s2.Runs) != len(s.Runs) || s2.LastSeq != s.LastSeq || len(s2.Meta) != len(s.Meta) {
			t.Fatal("accepted snapshot does not round-trip")
		}
	})
}
