// Package sst implements immutable sorted-run files (SSTables), the one
// durable format of the store's checkpoint engine: the disk format, a
// canonical encoder/decoder (the fuzz surface), an atomic writer, the
// linear last-wins merge, and a reader that serves point lookups through a
// learned fence index and a hybrid learned Bloom filter.
//
// This is the LSM branch of the learned-index taxonomy (paper §5, Bourbon;
// "Updatable Learned Indexes Meet Disk-Resident DBMS" in PAPERS.md): the
// durable store flushes its memtable into sorted runs, each run carries a
// per-run learned fence index (`page.Fences`, a PLA over the first key of
// every data page: the one a paged-pgm index routes by) and a
// per-run learned Bloom filter (`internal/lbf`, classifier + backup, zero
// false negatives) so point lookups of absent keys skip the run without
// touching disk.
//
// On-disk format. A run file is a sequence of 4 KiB pages reusing the
// CRC32C page framing from `internal/page` — every page carries the
// standard 24-byte header (CRC, type, count, self-id, link) and zero
// padding, so torn or bit-flipped writes anywhere are detected on read.
//
// Page 0 is the run's meta page (TypeMeta). After the standard header:
//
//	[24:32] magic "LIXSST01"
//	[32:36] format version, little-endian u32 (currently 1)
//	[36:40] page size, little-endian u32 (always 4096)
//	[40:48] live record count, little-endian u64
//	[48:56] tombstone count, little-endian u64
//	[56:64] sequence watermark, little-endian u64 — the highest WAL
//	        sequence number folded into this run
//	[64:72] min key (over live ∪ tombstone keys)
//	[72:80] max key (over live ∪ tombstone keys)
//	[80:..] zero padding
//
// Pages 1..D are data pages (TypeLeaf): sorted (key, value) records, every
// page full except the last, linked in a chain. Pages D+1..D+T are
// tombstone pages (TypeLeaf with value 0 for every record): the sorted
// keys this run deletes from older runs, in their own chain. A key appears
// at most once per run — live or dead, never both.
//
// The fence index and the learned filter are derived data, and lazy: they
// are built from the page contents by the first lookup that reads through
// the run (as a paged-pgm index rebuilds its fences at open), never at open,
// flush or compaction and never persisted, so a writer pays nothing for
// models nobody reads and the file format stays canonical — the fuzz
// target can pin Encode(Decode(b)) == b.
package sst

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/page"
)

const (
	// Magic identifies a run file's meta page.
	Magic = "LIXSST01"
	// Version is the current format version.
	Version = 1
	// PageSize is the fixed run-file page size.
	PageSize = page.Size4K
)

// RecsPerPage is how many records fit in one data or tombstone page.
var RecsPerPage = page.LeafCap(PageSize)

// FileData is the logical content of one run file: the validated,
// canonical decode of its pages.
type FileData struct {
	// Live holds the run's records, keys strictly ascending.
	Live []core.KV
	// Dead holds the keys this run deletes, strictly ascending and
	// disjoint from Live.
	Dead []core.Key
	// Seq is the highest WAL sequence number folded into the run.
	Seq uint64
}

// MinKey returns the smallest key in the run (live or dead). The run must
// be non-empty.
func (d *FileData) MinKey() core.Key {
	if len(d.Live) == 0 || (len(d.Dead) > 0 && d.Dead[0] < d.Live[0].Key) {
		return d.Dead[0]
	}
	return d.Live[0].Key
}

// MaxKey returns the largest key in the run (live or dead). The run must
// be non-empty.
func (d *FileData) MaxKey() core.Key {
	if nl, nd := len(d.Live), len(d.Dead); nl == 0 || (nd > 0 && d.Dead[nd-1] > d.Live[nl-1].Key) {
		return d.Dead[nd-1]
	}
	return d.Live[len(d.Live)-1].Key
}

// validate checks the writer-side invariants: a non-empty run, strictly
// ascending keys in both lists, and live/dead disjointness.
func validate(d *FileData) error {
	if len(d.Live)+len(d.Dead) == 0 {
		return fmt.Errorf("sst: empty run")
	}
	for i := 1; i < len(d.Live); i++ {
		if d.Live[i-1].Key >= d.Live[i].Key {
			return fmt.Errorf("sst: live keys not strictly ascending at %d", i)
		}
	}
	for i := 1; i < len(d.Dead); i++ {
		if d.Dead[i-1] >= d.Dead[i] {
			return fmt.Errorf("sst: tombstone keys not strictly ascending at %d", i)
		}
	}
	// Two-pointer disjointness walk over the sorted lists.
	i, j := 0, 0
	for i < len(d.Live) && j < len(d.Dead) {
		switch {
		case d.Live[i].Key < d.Dead[j]:
			i++
		case d.Live[i].Key > d.Dead[j]:
			j++
		default:
			return fmt.Errorf("sst: key %d is both live and dead", d.Live[i].Key)
		}
	}
	return nil
}

// pagesFor returns how many pages n records occupy.
func pagesFor(n int) int {
	return (n + RecsPerPage - 1) / RecsPerPage
}

// EncodeFile renders d into a sealed run-file byte image. The encoding is
// canonical: every accepted input produces exactly one byte image, and
// DecodeFile(EncodeFile(d)) reproduces d.
func EncodeFile(d *FileData) ([]byte, error) {
	if err := validate(d); err != nil {
		return nil, err
	}
	dp := pagesFor(len(d.Live))
	tp := pagesFor(len(d.Dead))
	np := 1 + dp + tp
	buf := make([]byte, np*PageSize)

	meta := page.Buf(buf[:PageSize])
	meta.Reset(page.TypeMeta, 0)
	copy(meta[24:32], Magic)
	binary.LittleEndian.PutUint32(meta[32:36], Version)
	binary.LittleEndian.PutUint32(meta[36:40], PageSize)
	binary.LittleEndian.PutUint64(meta[40:48], uint64(len(d.Live)))
	binary.LittleEndian.PutUint64(meta[48:56], uint64(len(d.Dead)))
	binary.LittleEndian.PutUint64(meta[56:64], d.Seq)
	binary.LittleEndian.PutUint64(meta[64:72], d.MinKey())
	binary.LittleEndian.PutUint64(meta[72:80], d.MaxKey())
	meta.Seal()

	// chain writes n records as the linked pages first, first+1, ...,
	// every page full except the last.
	chain := func(first, n int, rec func(j int) (core.Key, core.Value)) {
		for i, pages := 0, pagesFor(n); i < pages; i++ {
			id := uint64(first + i)
			p := page.Buf(buf[int(id)*PageSize : (int(id)+1)*PageSize])
			p.Reset(page.TypeLeaf, id)
			if i < pages-1 {
				p.SetLink(id + 1)
			}
			lo := i * RecsPerPage
			hi := min(lo+RecsPerPage, n)
			p.SetCount(hi - lo)
			for j := lo; j < hi; j++ {
				k, v := rec(j)
				p.SetLeafRecord(j-lo, k, v)
			}
			p.Seal()
		}
	}
	// Data chain: pages 1..dp. Tombstone chain: pages dp+1..dp+tp, value 0
	// for every record.
	chain(1, len(d.Live), func(j int) (core.Key, core.Value) { return d.Live[j].Key, d.Live[j].Value })
	chain(1+dp, len(d.Dead), func(j int) (core.Key, core.Value) { return d.Dead[j], 0 })
	return buf, nil
}

// DecodeFile validates b as a canonical run file and returns its logical
// content. Every structural property is checked — page CRCs, types, self
// ids, chain links, counts, strict global key order, live/dead
// disjointness, zero padding, and meta-page consistency — so a torn,
// truncated, or bit-flipped run is rejected rather than served, and
// EncodeFile(DecodeFile(b)) reproduces b byte-exactly for every accepted
// b (what FuzzSSTDecode pins). Allocations are bounded by len(b): counts
// are validated against the page count before any slice is sized from
// them.
func DecodeFile(b []byte) (*FileData, error) {
	if len(b)%PageSize != 0 {
		return nil, fmt.Errorf("sst: size %d not a multiple of the page size", len(b))
	}
	np := len(b) / PageSize
	if np < 2 {
		return nil, fmt.Errorf("sst: %d pages, need a meta page and at least one content page", np)
	}
	meta := page.Buf(b[:PageSize])
	if !meta.VerifyCRC() {
		return nil, fmt.Errorf("sst: meta page CRC mismatch")
	}
	if meta[5] != 0 {
		return nil, fmt.Errorf("sst: meta page nonzero flags byte %#x", meta[5])
	}
	if meta.Type() != page.TypeMeta || meta.ID() != 0 {
		return nil, fmt.Errorf("sst: page 0 is not a meta page")
	}
	if meta.Count() != 0 || meta.Link() != 0 {
		return nil, fmt.Errorf("sst: meta page count/link not zero")
	}
	if string(meta[24:32]) != Magic {
		return nil, fmt.Errorf("sst: bad magic %q", meta[24:32])
	}
	if v := binary.LittleEndian.Uint32(meta[32:36]); v != Version {
		return nil, fmt.Errorf("sst: unsupported format version %d", v)
	}
	if ps := binary.LittleEndian.Uint32(meta[36:40]); ps != PageSize {
		return nil, fmt.Errorf("sst: unsupported page size %d", ps)
	}
	nLive := binary.LittleEndian.Uint64(meta[40:48])
	nDead := binary.LittleEndian.Uint64(meta[48:56])
	// Page-count consistency before anything is allocated from the counts.
	maxRecs := uint64(np) * uint64(RecsPerPage)
	if nLive > maxRecs || nDead > maxRecs {
		return nil, fmt.Errorf("sst: counts %d/%d exceed file capacity", nLive, nDead)
	}
	if nLive+nDead == 0 {
		return nil, fmt.Errorf("sst: empty run")
	}
	dp := pagesFor(int(nLive))
	tp := pagesFor(int(nDead))
	if 1+dp+tp != np {
		return nil, fmt.Errorf("sst: %d pages, meta declares %d (%d data + %d tombstone)", np, 1+dp+tp, dp, tp)
	}
	for i := 80; i < PageSize; i++ {
		if meta[i] != 0 {
			return nil, fmt.Errorf("sst: meta page nonzero padding at byte %d", i)
		}
	}

	d := &FileData{Seq: binary.LittleEndian.Uint64(meta[56:64])}
	if nLive > 0 {
		d.Live = make([]core.KV, 0, nLive)
	}
	if nDead > 0 {
		d.Dead = make([]core.Key, 0, nDead)
	}
	// decodeChain validates one page chain (data or tombstone) and invokes
	// emit for each record in order.
	decodeChain := func(first, pages, recs int, what string, emit func(k core.Key, v core.Value) error) error {
		var prev core.Key
		havePrev := false
		for i := 0; i < pages; i++ {
			id := uint64(first + i)
			p := page.Buf(b[int(id)*PageSize : (int(id)+1)*PageSize])
			if !p.VerifyCRC() {
				return fmt.Errorf("sst: %s page %d CRC mismatch", what, id)
			}
			if p[5] != 0 {
				return fmt.Errorf("sst: %s page %d nonzero flags", what, id)
			}
			if p.Type() != page.TypeLeaf {
				return fmt.Errorf("sst: %s page %d has type %d, want leaf", what, id, p.Type())
			}
			if p.ID() != id {
				return fmt.Errorf("sst: %s page %d stores id %d", what, id, p.ID())
			}
			wantLink := uint64(0)
			if i < pages-1 {
				wantLink = id + 1
			}
			if p.Link() != wantLink {
				return fmt.Errorf("sst: %s page %d links %d, want %d", what, id, p.Link(), wantLink)
			}
			wantCount := RecsPerPage
			if i == pages-1 {
				wantCount = recs - i*RecsPerPage
			}
			if p.Count() != wantCount {
				return fmt.Errorf("sst: %s page %d holds %d records, want %d", what, id, p.Count(), wantCount)
			}
			for j := 0; j < wantCount; j++ {
				k := p.LeafKey(j)
				if havePrev && k <= prev {
					return fmt.Errorf("sst: %s keys not strictly ascending at page %d slot %d", what, id, j)
				}
				prev, havePrev = k, true
				if err := emit(k, p.LeafVal(j)); err != nil {
					return err
				}
			}
			for off := page.HeaderSize + 16*wantCount; off < PageSize; off++ {
				if p[off] != 0 {
					return fmt.Errorf("sst: %s page %d nonzero padding at byte %d", what, id, off)
				}
			}
		}
		return nil
	}
	if err := decodeChain(1, dp, int(nLive), "data", func(k core.Key, v core.Value) error {
		d.Live = append(d.Live, core.KV{Key: k, Value: v})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := decodeChain(1+dp, tp, int(nDead), "tombstone", func(k core.Key, v core.Value) error {
		if v != 0 {
			return fmt.Errorf("sst: tombstone for key %d carries nonzero value %d", k, v)
		}
		d.Dead = append(d.Dead, k)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := validate(d); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint64(meta[64:72]); got != d.MinKey() {
		return nil, fmt.Errorf("sst: meta min key %d, content says %d", got, d.MinKey())
	}
	if got := binary.LittleEndian.Uint64(meta[72:80]); got != d.MaxKey() {
		return nil, fmt.Errorf("sst: meta max key %d, content says %d", got, d.MaxKey())
	}
	return d, nil
}

// WriteFile atomically writes d as a run file at path (WriteAtomic): a
// crash at any point leaves either no file at path or a complete, valid
// run — never a torn one.
func WriteFile(path string, d *FileData) error {
	buf, err := EncodeFile(d)
	if err != nil {
		return err
	}
	return WriteAtomic(path, buf)
}

// WriteAtomic writes b to path so that no reader ever sees a partial file
// under that name: the bytes go to a temp file in the same directory,
// which is fsynced, renamed over path, and the directory fsynced so the
// rename itself is durable. The temp file's name does not end in ".lix".
func WriteAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so renames, creates and removes within it are
// durable.
func SyncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}
