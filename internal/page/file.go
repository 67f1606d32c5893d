package page

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
)

// Meta page layout (page 0, TypeMeta). After the standard header:
//
//	[24:32] magic "LIXPAGE1"
//	[32:36] format version, little-endian u32 (currently 1)
//	[36:40] page size, little-endian u32
//	[40:48] allocated page count (including the meta page)
//	[48:56] free-list head page id (0 = empty; page 0 is the meta page,
//	        so 0 can never be a real free page)
//	[56:64] root page id (B+-tree root / PGM head leaf; 0 = none)
//	[64:68] tree height, little-endian u32 (inner levels above leaves)
//	[68:76] record count
//	[76:78] kind-name length, little-endian u16
//	[78:..] kind name bytes (e.g. "paged-btree")
//
// The meta page carries the same CRC framing as every other page, so a
// torn meta write is detected at open.
const (
	metaMagic   = "LIXPAGE1"
	metaVersion = 1

	// MaxKindName bounds the kind string stored in the meta page.
	MaxKindName = 64
)

// Meta is the index-level state persisted in the meta page: everything an
// index needs to reopen a file, beyond the allocator state the File itself
// manages.
type Meta struct {
	// Kind names the index layout that owns the file ("paged-btree",
	// "paged-pgm"). Opens verify it, so a B+-tree never misreads a PGM
	// file's pages as routing nodes.
	Kind string
	// Root is the entry page: the B+-tree root, or the PGM head leaf.
	Root uint64
	// Height is the number of inner levels above the leaves.
	Height int
	// Count is the number of live records.
	Count int
}

// File is a paged file: fixed-size pages addressed by id, with atomic
// allocation from a free list or the file tail. Reads verify the CRC and
// the page's self-id; writes seal the CRC. Methods are safe for concurrent
// use; the callers above (pool, indexes) serialize logically conflicting
// accesses themselves.
type File struct {
	f        *os.File
	path     string
	pageSize int

	mu       sync.Mutex
	numPages uint64
	freeHead uint64
	meta     Meta
}

// Create creates a fresh page file at path (truncating any existing file)
// with the given page size (0 selects DefaultPageSize) and kind name.
func Create(path string, pageSize int, kind string) (*File, error) {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize != Size4K && pageSize != Size8K {
		return nil, fmt.Errorf("page: unsupported page size %d (want %d or %d)", pageSize, Size4K, Size8K)
	}
	if len(kind) == 0 || len(kind) > MaxKindName {
		return nil, fmt.Errorf("page: kind name %q must be 1..%d bytes", kind, MaxKindName)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	pf := &File{f: f, path: path, pageSize: pageSize, numPages: 1, meta: Meta{Kind: kind}}
	if err := pf.writeMeta(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return pf, nil
}

// Open opens an existing page file, validating the meta page.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// The page size is self-described; probe with the larger size first —
	// a 4K meta page is a prefix of an 8K read only if the file is 4K
	// paged, and the declared size disambiguates.
	buf := make([]byte, Size8K)
	n, err := f.ReadAt(buf, 0)
	if n < Size4K {
		f.Close()
		return nil, fmt.Errorf("page: %s: meta page truncated (%d bytes): %v", path, n, err)
	}
	declared := int(binary.LittleEndian.Uint32(buf[36:40]))
	if declared != Size4K && declared != Size8K {
		f.Close()
		return nil, fmt.Errorf("page: %s: meta page declares unsupported page size %d", path, declared)
	}
	if declared > n {
		f.Close()
		return nil, fmt.Errorf("page: %s: meta page truncated (%d of %d bytes)", path, n, declared)
	}
	p := Buf(buf[:declared])
	if !p.VerifyCRC() {
		f.Close()
		return nil, fmt.Errorf("page: %s: meta page CRC mismatch", path)
	}
	if p.Type() != TypeMeta || p.ID() != 0 {
		f.Close()
		return nil, fmt.Errorf("page: %s: page 0 is not a meta page", path)
	}
	if string(p[24:32]) != metaMagic {
		f.Close()
		return nil, fmt.Errorf("page: %s: bad magic %q", path, p[24:32])
	}
	if v := binary.LittleEndian.Uint32(p[32:36]); v != metaVersion {
		f.Close()
		return nil, fmt.Errorf("page: %s: unsupported format version %d", path, v)
	}
	pf := &File{f: f, path: path, pageSize: declared}
	pf.numPages = binary.LittleEndian.Uint64(p[40:48])
	pf.freeHead = binary.LittleEndian.Uint64(p[48:56])
	pf.meta.Root = binary.LittleEndian.Uint64(p[56:64])
	pf.meta.Height = int(binary.LittleEndian.Uint32(p[64:68]))
	pf.meta.Count = int(binary.LittleEndian.Uint64(p[68:76]))
	klen := int(binary.LittleEndian.Uint16(p[76:78]))
	if klen > MaxKindName || 78+klen > declared {
		f.Close()
		return nil, fmt.Errorf("page: %s: bad kind length %d", path, klen)
	}
	pf.meta.Kind = string(p[78 : 78+klen])
	// A crash can leave allocated pages beyond the recorded count (pages
	// are extended before the meta is rewritten); trust the longer of the
	// two so allocation never hands out an id that already holds data.
	if st, err := f.Stat(); err == nil {
		if byLen := uint64(st.Size()) / uint64(declared); byLen > pf.numPages {
			pf.numPages = byLen
		}
	}
	return pf, nil
}

// PageSize returns the file's page size in bytes.
func (pf *File) PageSize() int { return pf.pageSize }

// Path returns the file's path.
func (pf *File) Path() string { return pf.path }

// NumPages returns the number of allocated pages, including the meta page
// and free-list members.
func (pf *File) NumPages() uint64 {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.numPages
}

// Meta returns the persisted index-level state.
func (pf *File) Meta() Meta {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.meta
}

// SetMeta stages m; it is persisted by the next WriteMeta/Sync/Close.
func (pf *File) SetMeta(m Meta) {
	pf.mu.Lock()
	pf.meta = m
	pf.mu.Unlock()
}

// writeMeta renders and writes the meta page. Caller must not hold mu.
func (pf *File) writeMeta() error {
	pf.mu.Lock()
	p := Buf(make([]byte, pf.pageSize))
	p.Reset(TypeMeta, 0)
	copy(p[24:32], metaMagic)
	binary.LittleEndian.PutUint32(p[32:36], metaVersion)
	binary.LittleEndian.PutUint32(p[36:40], uint32(pf.pageSize))
	binary.LittleEndian.PutUint64(p[40:48], pf.numPages)
	binary.LittleEndian.PutUint64(p[48:56], pf.freeHead)
	binary.LittleEndian.PutUint64(p[56:64], pf.meta.Root)
	binary.LittleEndian.PutUint32(p[64:68], uint32(pf.meta.Height))
	binary.LittleEndian.PutUint64(p[68:76], uint64(pf.meta.Count))
	binary.LittleEndian.PutUint16(p[76:78], uint16(len(pf.meta.Kind)))
	copy(p[78:], pf.meta.Kind)
	p.Seal()
	pf.mu.Unlock()
	_, err := pf.f.WriteAt(p, 0)
	return err
}

// WriteMeta persists the staged meta and allocator state.
func (pf *File) WriteMeta() error { return pf.writeMeta() }

// Read fills p with page id's content, verifying the CRC and the stored
// self-id. p must be PageSize bytes.
func (pf *File) Read(id uint64, p Buf) error {
	if len(p) != pf.pageSize {
		return fmt.Errorf("page: read buffer is %d bytes, page size %d", len(p), pf.pageSize)
	}
	return ReadPage(pf.f, pf.path, id, p)
}

// ReadPage fills p with page id of the file r, whose pages are len(p)
// bytes, verifying the CRC and the stored self-id. path names the file in
// errors. It is the one page read of every paged file, index or run.
func ReadPage(r io.ReaderAt, path string, id uint64, p Buf) error {
	n, err := r.ReadAt(p, int64(id)*int64(len(p)))
	if n != len(p) {
		return fmt.Errorf("page: %s: short read of page %d (%d bytes): %v", path, id, n, err)
	}
	if !p.VerifyCRC() {
		return fmt.Errorf("page: %s: page %d CRC mismatch (torn or corrupted write)", path, id)
	}
	if p.ID() != id {
		return fmt.Errorf("page: %s: page %d stores id %d (misdirected write)", path, id, p.ID())
	}
	return nil
}

// Write seals p's CRC and writes it at page id's offset.
func (pf *File) Write(id uint64, p Buf) error {
	if len(p) != pf.pageSize {
		return fmt.Errorf("page: write buffer is %d bytes, page size %d", len(p), pf.pageSize)
	}
	if p.ID() != id {
		return fmt.Errorf("page: writing page %d with stored id %d", id, p.ID())
	}
	p.Seal()
	_, err := pf.f.WriteAt(p, int64(id)*int64(pf.pageSize))
	return err
}

// Allocate returns a fresh page id: the free-list head when one exists,
// else a page extending the file. The caller owns the page content; the
// file does not write it.
func (pf *File) Allocate() (uint64, error) {
	pf.mu.Lock()
	if pf.freeHead != 0 {
		id := pf.freeHead
		pf.mu.Unlock()
		// Pop: the free page's link is the next free page.
		p := Buf(make([]byte, pf.pageSize))
		if err := pf.Read(id, p); err != nil {
			return 0, fmt.Errorf("page: free-list pop: %w", err)
		}
		if p.Type() != TypeFree {
			return 0, fmt.Errorf("page: free-list head %d has type %d, not free", id, p.Type())
		}
		pf.mu.Lock()
		pf.freeHead = p.Link()
		pf.mu.Unlock()
		return id, nil
	}
	id := pf.numPages
	pf.numPages++
	pf.mu.Unlock()
	return id, nil
}

// Free returns page id to the free list by writing a free-list page over
// it linking to the previous head.
func (pf *File) Free(id uint64) error {
	if id == 0 {
		return fmt.Errorf("page: cannot free the meta page")
	}
	pf.mu.Lock()
	head := pf.freeHead
	pf.mu.Unlock()
	p := Buf(make([]byte, pf.pageSize))
	p.Reset(TypeFree, id)
	p.SetLink(head)
	if err := pf.Write(id, p); err != nil {
		return err
	}
	pf.mu.Lock()
	pf.freeHead = id
	pf.mu.Unlock()
	return nil
}

// Sync persists the meta page and fsyncs the file.
func (pf *File) Sync() error {
	if err := pf.writeMeta(); err != nil {
		return err
	}
	return pf.f.Sync()
}

// Close persists the meta page and closes the file.
func (pf *File) Close() error {
	if err := pf.writeMeta(); err != nil {
		pf.f.Close()
		return err
	}
	return pf.f.Close()
}
