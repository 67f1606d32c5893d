package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/sst"
)

// Snapshot codec: the format of the manifest (lsm-<gen>.lix). A file is a
// magic string followed by CRC32C-framed sections:
//
//	file:    magic "LIXSNAP1" | section*
//	section: u8 id | u64 payload length | payload | u32 CRC32C(id, length, payload)
//
// Sections (in write order):
//
//	meta (1):    u32 pair count | (u16 klen, key bytes, u16 vlen, value bytes)*
//	state (3):   u64 last committed WAL sequence number
//	runs (4):    u32 run count | (u64 id, u64 live, u64 dead, u64 seq,
//	             u64 minKey, u64 maxKey)* — the run list, newest first
//	             (absent when empty)
//	footer (240): u64 0 — marks the file complete
//
// Section 2 held the records of the retired snapshot-rewrite engine's
// checkpoints; manifests of earlier versions carry it empty (u64 count 0),
// and a reader accepts it only so. All integers are little-endian. A
// reader accepts a snapshot only if every section's CRC validates and the
// footer is present and 0; anything else (torn write, bit rot, partial
// copy) makes the whole file invalid and recovery falls back to the
// previous generation. Writers get atomicity from temp-file-then-rename:
// the final name only ever refers to a fully written, fsynced file.
const (
	snapMagic = "LIXSNAP1"

	secMeta    = 1
	secRecords = 2
	secState   = 3
	secRuns    = 4
	secFooter  = 240

	// maxSnapSection bounds a declared section length during parsing
	// (1 GiB ~ 64M records) so corrupt lengths fail fast instead of
	// attempting huge allocations.
	maxSnapSection = 1 << 30
)

// SnapshotData is the logical content of a manifest: the rebuild
// parameters, the WAL sequence high-water mark at checkpoint time, and the
// sorted-run files, newest first.
type SnapshotData struct {
	Meta    map[string]string
	LastSeq uint64
	Runs    []RunRef
}

// RunRef is one manifest entry: the identity and summary of a sorted-run
// file the store owns. The list order in the manifest is the age
// order (newest first), which is what makes shadowing deterministic.
type RunRef struct {
	// ID names the run file (sst-<id>.lix). IDs are allocated
	// monotonically and never reused within a store directory.
	ID uint64
	// Live and Dead are the run's record and tombstone counts.
	Live uint64
	Dead uint64
	// Seq is the run's WAL sequence watermark.
	Seq uint64
	// MinKey and MaxKey bound the run's keys (live ∪ dead).
	MinKey core.Key
	MaxKey core.Key
}

func appendSection(buf []byte, id byte, payload []byte) []byte {
	var hdr [9]byte
	hdr[0] = id
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
	crc := crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, payload)
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// encodeSnapshot renders s into the file format.
func encodeSnapshot(s *SnapshotData) []byte {
	// Meta, keys sorted for deterministic bytes.
	keys := make([]string, 0, len(s.Meta))
	for k := range s.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	meta := binary.LittleEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		meta = binary.LittleEndian.AppendUint16(meta, uint16(len(k)))
		meta = append(meta, k...)
		meta = binary.LittleEndian.AppendUint16(meta, uint16(len(s.Meta[k])))
		meta = append(meta, s.Meta[k]...)
	}

	state := binary.LittleEndian.AppendUint64(nil, s.LastSeq)
	footer := binary.LittleEndian.AppendUint64(nil, 0)

	buf := append([]byte(nil), snapMagic...)
	buf = appendSection(buf, secMeta, meta)
	buf = appendSection(buf, secState, state)
	if len(s.Runs) > 0 {
		runs := binary.LittleEndian.AppendUint32(nil, uint32(len(s.Runs)))
		for _, r := range s.Runs {
			runs = binary.LittleEndian.AppendUint64(runs, r.ID)
			runs = binary.LittleEndian.AppendUint64(runs, r.Live)
			runs = binary.LittleEndian.AppendUint64(runs, r.Dead)
			runs = binary.LittleEndian.AppendUint64(runs, r.Seq)
			runs = binary.LittleEndian.AppendUint64(runs, r.MinKey)
			runs = binary.LittleEndian.AppendUint64(runs, r.MaxKey)
		}
		buf = appendSection(buf, secRuns, runs)
	}
	return appendSection(buf, secFooter, footer)
}

// DecodeSnapshot parses and validates snapshot bytes. It never panics on
// arbitrary input.
func DecodeSnapshot(data []byte) (*SnapshotData, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("store: snapshot: bad magic")
	}
	s := &SnapshotData{Meta: map[string]string{}}
	off, footerCount, sawFooter := len(snapMagic), uint64(0), false
	for off < len(data) {
		if len(data)-off < 9+4 {
			return nil, fmt.Errorf("store: snapshot: torn section header at %d", off)
		}
		id := data[off]
		n := binary.LittleEndian.Uint64(data[off+1 : off+9])
		if n > maxSnapSection || uint64(len(data)-off-9-4) < n {
			return nil, fmt.Errorf("store: snapshot: section %d truncated at %d", id, off)
		}
		payload := data[off+9 : off+9+int(n)]
		crc := crc32.Update(crc32.Checksum(data[off:off+9], castagnoli), castagnoli, payload)
		if crc != binary.LittleEndian.Uint32(data[off+9+int(n):]) {
			return nil, fmt.Errorf("store: snapshot: section %d CRC mismatch at %d", id, off)
		}
		switch id {
		case secMeta:
			if err := decodeMeta(payload, s.Meta); err != nil {
				return nil, err
			}
		case secRecords:
			if len(payload) != 8 || binary.LittleEndian.Uint64(payload) != 0 {
				return nil, fmt.Errorf("store: snapshot: records section of %d bytes (only the empty one is read)", len(payload))
			}
		case secState:
			if len(payload) != 8 {
				return nil, fmt.Errorf("store: snapshot: state section has %d bytes", len(payload))
			}
			s.LastSeq = binary.LittleEndian.Uint64(payload)
		case secRuns:
			runs, err := decodeRuns(payload)
			if err != nil {
				return nil, err
			}
			s.Runs = runs
		case secFooter:
			if len(payload) != 8 {
				return nil, fmt.Errorf("store: snapshot: footer has %d bytes", len(payload))
			}
			footerCount, sawFooter = binary.LittleEndian.Uint64(payload), true
		default:
			// Unknown CRC-valid sections are skipped for forward compatibility.
		}
		off += 9 + int(n) + 4
	}
	if !sawFooter {
		return nil, fmt.Errorf("store: snapshot: missing footer (incomplete file)")
	}
	if footerCount != 0 {
		return nil, fmt.Errorf("store: snapshot: footer records %d, want 0", footerCount)
	}
	return s, nil
}

func decodeMeta(p []byte, out map[string]string) error {
	if len(p) < 4 {
		return fmt.Errorf("store: snapshot: meta section has %d bytes", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	off := 4
	for i := 0; i < n; i++ {
		k, next, err := decodeStr(p, off)
		if err != nil {
			return err
		}
		v, next2, err := decodeStr(p, next)
		if err != nil {
			return err
		}
		out[k] = v
		off = next2
	}
	if off != len(p) {
		return fmt.Errorf("store: snapshot: %d trailing meta bytes", len(p)-off)
	}
	return nil
}

func decodeStr(p []byte, off int) (string, int, error) {
	if len(p)-off < 2 {
		return "", 0, fmt.Errorf("store: snapshot: torn meta string at %d", off)
	}
	n := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	if len(p)-off < n {
		return "", 0, fmt.Errorf("store: snapshot: torn meta string at %d", off)
	}
	return string(p[off : off+n]), off + n, nil
}

func decodeRuns(p []byte) ([]RunRef, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("store: snapshot: runs section has %d bytes", len(p))
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(len(p)-4) != uint64(n)*48 {
		return nil, fmt.Errorf("store: snapshot: runs section declares %d runs in %d bytes", n, len(p)-4)
	}
	runs := make([]RunRef, n)
	for i := range runs {
		b := p[4+48*i:]
		runs[i] = RunRef{
			ID:     binary.LittleEndian.Uint64(b),
			Live:   binary.LittleEndian.Uint64(b[8:]),
			Dead:   binary.LittleEndian.Uint64(b[16:]),
			Seq:    binary.LittleEndian.Uint64(b[24:]),
			MinKey: binary.LittleEndian.Uint64(b[32:]),
			MaxKey: binary.LittleEndian.Uint64(b[40:]),
		}
	}
	return runs, nil
}

// WriteSnapshot atomically writes s to path (sst.WriteAtomic): readers
// never observe a partially written snapshot under the final name.
func WriteSnapshot(path string, s *SnapshotData) error {
	return sst.WriteAtomic(path, encodeSnapshot(s))
}

// ReadSnapshot loads and validates the snapshot at path.
func ReadSnapshot(path string) (*SnapshotData, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}
