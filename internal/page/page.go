// Package page is the disk-resident storage tier of the lix library: a
// paged file format, a buffer pool with pin/unpin refcounts and CLOCK
// eviction, and one paged index built on top of them — sorted records in a
// chain of leaf pages — with two routers, which make its two kinds: a
// B+-tree of inner pages (`paged-btree`) and a learned fence index pinned
// in memory (`paged-pgm`, PGM-style segments over the first key of each
// leaf). The fence index (Fences) is also how an sst run finds a data
// page, and ReadPage is how a run reads one.
//
// The design follows the central observation of "Updatable Learned Indexes
// Meet Disk-Resident DBMS" (PAPERS.md): once data no longer fits in RAM,
// page layout and buffer management dominate learned-index performance, not
// model accuracy. Everything in this package therefore revolves around
// fixed-size pages: models predict a *leaf page*, the last-mile search runs
// inside a single pinned page, and the buffer pool decides what stays hot.
//
// On-disk format. A page file is a sequence of fixed-size pages (4 KiB or
// 8 KiB). Every page carries a 24-byte header:
//
//	[0:4]   CRC32C over bytes [4:pageSize] (header remainder + payload)
//	[4]     page type (meta, free, leaf, inner)
//	[5]     flags (reserved, zero)
//	[6:8]   entry count, little-endian u16
//	[8:16]  page id, little-endian u64 — self reference, catches
//	        misdirected reads and writes
//	[16:24] link, little-endian u64 — type-specific: next leaf in the
//	        chain (leaves), rightmost child (inner nodes), next free page
//	        (free-list pages)
//
// Leaf payloads are sorted (u64 key, u64 value) pairs; inner payloads are
// (separator key, child id) pairs routing keys below the separator, with
// the rightmost child in the header link. Unused payload bytes are zero —
// the CRC covers them, so torn or bit-flipped writes anywhere in the page
// are detected on read. Page 0 is the meta page (format below in file.go).
package page

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/lix-go/lix/internal/core"
)

// Page sizes. Both are multiples of common sector sizes, so a page write
// is as close to atomic as the device allows; the CRC catches the cases
// where it is not.
const (
	Size4K = 4096
	Size8K = 8192

	// DefaultPageSize is used when an Options.PageSize of 0 is given.
	DefaultPageSize = Size4K
)

// HeaderSize is the per-page header length in bytes.
const HeaderSize = 24

// Page types.
const (
	TypeMeta  byte = 1 // page 0: file metadata
	TypeFree  byte = 2 // free-list member
	TypeLeaf  byte = 3 // sorted (key, value) records
	TypeInner byte = 4 // B+-tree routing node
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Buf is one page-sized byte buffer. All accessors assume len(p) is the
// file's page size and ≥ HeaderSize.
type Buf []byte

// Type returns the page type byte.
func (p Buf) Type() byte { return p[4] }

// SetType stores the page type byte.
func (p Buf) SetType(t byte) { p[4] = t }

// Count returns the entry count.
func (p Buf) Count() int { return int(binary.LittleEndian.Uint16(p[6:8])) }

// SetCount stores the entry count.
func (p Buf) SetCount(n int) { binary.LittleEndian.PutUint16(p[6:8], uint16(n)) }

// ID returns the page's self-reference id.
func (p Buf) ID() uint64 { return binary.LittleEndian.Uint64(p[8:16]) }

// SetID stores the page's self-reference id.
func (p Buf) SetID(id uint64) { binary.LittleEndian.PutUint64(p[8:16], id) }

// Link returns the type-specific link field (next leaf / rightmost child /
// next free page).
func (p Buf) Link() uint64 { return binary.LittleEndian.Uint64(p[16:24]) }

// SetLink stores the link field.
func (p Buf) SetLink(id uint64) { binary.LittleEndian.PutUint64(p[16:24], id) }

// Seal computes and stores the CRC. Call after every mutation, before the
// page is written to disk.
func (p Buf) Seal() {
	binary.LittleEndian.PutUint32(p[0:4], crc32.Checksum(p[4:], castagnoli))
}

// VerifyCRC reports whether the stored CRC matches the page content.
func (p Buf) VerifyCRC() bool {
	return binary.LittleEndian.Uint32(p[0:4]) == crc32.Checksum(p[4:], castagnoli)
}

// Reset zeroes the page and stamps type and id. Zeroing matters: unused
// payload bytes are part of the CRC and of the canonical encoding.
func (p Buf) Reset(typ byte, id uint64) {
	for i := range p {
		p[i] = 0
	}
	p.SetType(typ)
	p.SetID(id)
}

// LeafCap returns how many (key, value) records fit in a leaf page of the
// given size.
func LeafCap(pageSize int) int { return (pageSize - HeaderSize) / 16 }

// InnerCap returns how many (separator, child) pairs fit in an inner page
// of the given size. The rightmost child lives in the header link, so an
// inner page at capacity routes InnerCap+1 children.
func InnerCap(pageSize int) int { return (pageSize - HeaderSize) / 16 }

// LeafKey returns record i's key.
func (p Buf) LeafKey(i int) core.Key {
	return binary.LittleEndian.Uint64(p[HeaderSize+16*i:])
}

// LeafVal returns record i's value.
func (p Buf) LeafVal(i int) core.Value {
	return binary.LittleEndian.Uint64(p[HeaderSize+16*i+8:])
}

// SetLeafRecord stores record i.
func (p Buf) SetLeafRecord(i int, k core.Key, v core.Value) {
	binary.LittleEndian.PutUint64(p[HeaderSize+16*i:], k)
	binary.LittleEndian.PutUint64(p[HeaderSize+16*i+8:], v)
}

// LeafSearch returns the smallest index i with LeafKey(i) >= k, and whether
// that record's key equals k — the in-page last-mile search.
func (p Buf) LeafSearch(k core.Key) (int, bool) {
	lo, hi := 0, p.Count()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.LeafKey(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < p.Count() && p.LeafKey(lo) == k
}

// LeafInsertAt shifts records [i:count) right and stores (k, v) at i.
// The caller must ensure count < LeafCap.
func (p Buf) LeafInsertAt(i int, k core.Key, v core.Value) {
	n := p.Count()
	copy(p[HeaderSize+16*(i+1):HeaderSize+16*(n+1)], p[HeaderSize+16*i:HeaderSize+16*n])
	p.SetLeafRecord(i, k, v)
	p.SetCount(n + 1)
}

// LeafDeleteAt removes record i, shifting the tail left and zeroing the
// vacated slot (the canonical form keeps unused bytes zero).
func (p Buf) LeafDeleteAt(i int) {
	n := p.Count()
	copy(p[HeaderSize+16*i:HeaderSize+16*(n-1)], p[HeaderSize+16*(i+1):HeaderSize+16*n])
	for b := HeaderSize + 16*(n-1); b < HeaderSize+16*n; b++ {
		p[b] = 0
	}
	p.SetCount(n - 1)
}

// InnerKey returns separator i.
func (p Buf) InnerKey(i int) core.Key {
	return binary.LittleEndian.Uint64(p[HeaderSize+16*i:])
}

// InnerChild returns the child id paired with separator i (routing keys
// < InnerKey(i)).
func (p Buf) InnerChild(i int) uint64 {
	return binary.LittleEndian.Uint64(p[HeaderSize+16*i+8:])
}

// SetInnerEntry stores (separator, child) pair i.
func (p Buf) SetInnerEntry(i int, k core.Key, child uint64) {
	binary.LittleEndian.PutUint64(p[HeaderSize+16*i:], k)
	binary.LittleEndian.PutUint64(p[HeaderSize+16*i+8:], child)
}

// InnerDeleteAt removes (separator, child) pair i, shifting the tail left
// and zeroing the vacated slot. Inner entries share the leaf record byte
// layout, so the same moves apply.
func (p Buf) InnerDeleteAt(i int) { p.LeafDeleteAt(i) }

// InnerRoute returns the child page to descend into for key k: the child
// of the first separator greater than k, or the rightmost child (the
// header link) when no separator is greater.
func (p Buf) InnerRoute(k core.Key) uint64 { return p.innerChild(p.innerSlot(k)) }

// innerSlot returns the slot InnerRoute takes for k: the index of the
// first separator greater than k, Count() for the rightmost link.
func (p Buf) innerSlot(k core.Key) int {
	lo, hi := 0, p.Count()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.InnerKey(mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// innerChild returns the child at slot i: InnerChild(i), or the header
// link for i == Count().
func (p Buf) innerChild(i int) uint64 {
	if i == p.Count() {
		return p.Link()
	}
	return p.InnerChild(i)
}

// InnerInsertAt shifts entries [i:count) right and stores (k, child) at i.
func (p Buf) InnerInsertAt(i int, k core.Key, child uint64) {
	n := p.Count()
	copy(p[HeaderSize+16*(i+1):HeaderSize+16*(n+1)], p[HeaderSize+16*i:HeaderSize+16*n])
	p.SetInnerEntry(i, k, child)
	p.SetCount(n + 1)
}

// ---------------------------------------------------------------------------
// Canonical decode / encode (the fuzz surface)
// ---------------------------------------------------------------------------

// Decoded is the logical content of one validated leaf or inner page.
type Decoded struct {
	Type byte
	ID   uint64
	Link uint64
	Keys []core.Key
	Vals []uint64 // record values (leaf) or child ids (inner)
	Size int      // page size the buffer was validated at
}

// Decode validates p as a canonical leaf or inner page — CRC intact,
// known type, count within capacity, keys sorted (strictly ascending),
// flags zero, and all unused payload bytes zero — and returns its logical
// content. The zero-padding requirement makes the encoding canonical:
// Encode(Decode(p)) reproduces p byte-exactly for every accepted p, which
// is what FuzzPageDecode pins.
func Decode(p []byte) (*Decoded, error) {
	ps := len(p)
	if ps != Size4K && ps != Size8K {
		return nil, fmt.Errorf("page: bad page size %d", ps)
	}
	b := Buf(p)
	if !b.VerifyCRC() {
		return nil, fmt.Errorf("page: CRC mismatch")
	}
	if b[5] != 0 {
		return nil, fmt.Errorf("page: nonzero flags byte %#x", b[5])
	}
	typ := b.Type()
	if typ != TypeLeaf && typ != TypeInner {
		return nil, fmt.Errorf("page: not a leaf or inner page (type %d)", typ)
	}
	n := b.Count()
	if n > LeafCap(ps) {
		return nil, fmt.Errorf("page: count %d exceeds capacity %d", n, LeafCap(ps))
	}
	for i := 1; i < n; i++ {
		if b.LeafKey(i-1) >= b.LeafKey(i) {
			return nil, fmt.Errorf("page: keys not strictly ascending at %d", i)
		}
	}
	for i := HeaderSize + 16*n; i < ps; i++ {
		if p[i] != 0 {
			return nil, fmt.Errorf("page: nonzero padding at byte %d", i)
		}
	}
	d := &Decoded{Type: typ, ID: b.ID(), Link: b.Link(), Size: ps}
	d.Keys = make([]core.Key, n)
	d.Vals = make([]uint64, n)
	for i := 0; i < n; i++ {
		d.Keys[i] = b.LeafKey(i)
		d.Vals[i] = b.LeafVal(i)
	}
	return d, nil
}

// Encode renders d back into a sealed page buffer of d.Size bytes.
func Encode(d *Decoded) []byte {
	p := Buf(make([]byte, d.Size))
	p.Reset(d.Type, d.ID)
	p.SetLink(d.Link)
	p.SetCount(len(d.Keys))
	for i := range d.Keys {
		p.SetLeafRecord(i, d.Keys[i], d.Vals[i])
	}
	p.Seal()
	return p
}
