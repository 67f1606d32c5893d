package lix

import "github.com/lix-go/lix/internal/page"

// Paged indexes: the disk-resident storage tier. One index type stores
// sorted records in a chain of fixed-size CRC-framed leaf pages behind a
// buffer pool with CLOCK eviction, so the resident working set is bounded
// by PagedOptions.PoolFrames even when the indexed data is far larger than
// memory. The two kinds differ only in how a key reaches its leaf:
// `paged-btree` routes through disk-resident inner pages; `paged-pgm`
// through an in-memory learned model over the leaf fence keys, touching
// at most one page per point lookup.
// See DESIGN.md §9 for the page format and eviction rules.
type (
	// PagedOptions configure a paged index: page size and buffer-pool
	// frame budget.
	PagedOptions = page.Options
	// PagedBTree is a disk-backed B+-tree over fixed-size pages: the one
	// paged index type, routing through inner pages.
	PagedBTree = page.Index
	// PagedPGM is a paged learned index: the one paged index type,
	// routing through a PGM-style fence model pinned in memory.
	PagedPGM = page.Index
	// PagedPoolStats is a point-in-time view of a paged index's buffer
	// pool traffic (hits, misses, evictions, write-backs).
	PagedPoolStats = page.PoolStats
)

// CreatePagedBTree creates a fresh paged B+-tree file at path.
func CreatePagedBTree(path string, o PagedOptions) (*PagedBTree, error) {
	return page.CreateIndex(path, page.KindBTree, o)
}

// OpenPagedBTree reopens a paged B+-tree file created earlier.
func OpenPagedBTree(path string, o PagedOptions) (*PagedBTree, error) {
	return page.OpenIndex(path, page.KindBTree, o)
}

// NewTempPagedBTree creates a paged B+-tree backed by a temporary file
// removed on Close — a drop-in mutable index whose memory stays bounded.
func NewTempPagedBTree(o PagedOptions) (*PagedBTree, error) {
	return page.NewTempIndex(page.KindBTree, o)
}

// BulkPagedBTree creates a paged B+-tree file at path bulk-loaded with
// recs (sorted ascending, distinct keys).
func BulkPagedBTree(path string, recs []KV, o PagedOptions) (*PagedBTree, error) {
	return page.BulkIndex(path, page.KindBTree, recs, o)
}

// CreatePagedPGM creates a fresh paged learned index file at path.
func CreatePagedPGM(path string, o PagedOptions) (*PagedPGM, error) {
	return page.CreateIndex(path, page.KindPGM, o)
}

// OpenPagedPGM reopens a paged learned index, rebuilding the in-memory
// fence array and model from the on-disk leaf chain.
func OpenPagedPGM(path string, o PagedOptions) (*PagedPGM, error) {
	return page.OpenIndex(path, page.KindPGM, o)
}

// NewTempPagedPGM creates a paged learned index backed by a temporary
// file removed on Close.
func NewTempPagedPGM(o PagedOptions) (*PagedPGM, error) {
	return page.NewTempIndex(page.KindPGM, o)
}

// BulkPagedPGM creates a paged learned index file at path bulk-loaded
// with recs (sorted ascending, distinct keys).
func BulkPagedPGM(path string, recs []KV, o PagedOptions) (*PagedPGM, error) {
	return page.BulkIndex(path, page.KindPGM, recs, o)
}
