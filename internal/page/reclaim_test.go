package page

import (
	"math/rand"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// bulkIndex is pagedIndex plus the bulk loader both kinds expose; the
// reclaim sweep rebuilds into the emptied file to prove page reuse.
type bulkIndex interface {
	pagedIndex
	BulkLoad([]core.KV) error
}

// TestDeleteReclaimsPages is the acceptance gate for free-list reclaim:
// deleting records must return emptied leaf pages (and, for the B+-tree,
// childless inner pages) to the file's free list, so a rebuild into the
// same file allocates every page from the free list and the on-disk
// footprint does not grow.
func TestDeleteReclaimsPages(t *testing.T) {
	// Enough records that the B+-tree has two inner levels (LeafCap 254,
	// fanout 255 ⇒ >255 leaves), exercising multi-level unlink propagation
	// and root collapse.
	const n = 70000
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i*2 + 1), Value: core.Value(i)}
	}
	bt, err := NewTempIndex(KindBTree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewTempIndex(KindPGM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]bulkIndex{KindBTree: bt, KindPGM: pg} {
		t.Run(name, func(t *testing.T) {
			defer ix.Close()
			if err := ix.BulkLoad(recs); err != nil {
				t.Fatal(err)
			}
			footprint := ix.Stats().DataBytes

			// Delete a scattered half in random order: interior leaves empty
			// one by one, hitting the leftmost-leaf, rightmost-link, and
			// predecessor-relink cases.
			rng := rand.New(rand.NewSource(41))
			perm := rng.Perm(n)
			for _, i := range perm[:n/2] {
				if !ix.Delete(recs[i].Key) {
					t.Fatalf("delete(%d) = false", recs[i].Key)
				}
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("after half delete: %v", err)
			}
			if got := ix.Stats().DataBytes; got != footprint {
				t.Fatalf("footprint grew during deletes: %d -> %d", footprint, got)
			}
			deleted := make(map[core.Key]bool, n/2)
			for _, i := range perm[:n/2] {
				deleted[recs[i].Key] = true
			}
			for _, r := range recs {
				v, ok := ix.Get(r.Key)
				if deleted[r.Key] {
					if ok {
						t.Fatalf("deleted key %d still present", r.Key)
					}
				} else if !ok || v != r.Value {
					t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", r.Key, v, ok, r.Value)
				}
			}

			// Delete the rest: the structure must collapse to empty.
			for _, i := range perm[n/2:] {
				if !ix.Delete(recs[i].Key) {
					t.Fatalf("delete(%d) = false", recs[i].Key)
				}
			}
			if ix.Len() != 0 {
				t.Fatalf("Len = %d after deleting everything", ix.Len())
			}
			if got := ix.Range(0, ^core.Key(0), func(core.Key, core.Value) bool { return true }); got != 0 {
				t.Fatalf("empty index Range visited %d records", got)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("after full delete: %v", err)
			}

			// Rebuild into the emptied file: every page must come off the
			// free list, so the footprint is exactly what the first load used.
			if err := ix.BulkLoad(recs); err != nil {
				t.Fatalf("reload: %v", err)
			}
			if got := ix.Stats().DataBytes; got != footprint {
				t.Fatalf("reload footprint %d, want %d (pages not reclaimed)", got, footprint)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("after reload: %v", err)
			}
			for i := 0; i < n; i += 97 {
				r := recs[i]
				if v, ok := ix.Get(r.Key); !ok || v != r.Value {
					t.Fatalf("reloaded Get(%d) = (%d,%v)", r.Key, v, ok)
				}
			}
		})
	}
}

// TestDeleteReclaimSurvivesReopen pins that a file with reclaimed pages
// reopens cleanly and keeps serving: the free list persists through the
// meta page and the next insert reuses a freed page instead of growing
// the file.
func TestDeleteReclaimSurvivesReopen(t *testing.T) {
	const n = 1200 // a handful of leaves per kind
	recs := make([]core.KV, n)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i*3 + 2), Value: core.Value(i)}
	}
	dir := t.TempDir()
	for _, kind := range []string{KindBTree, KindPGM} {
		t.Run(kind, func(t *testing.T) {
			path := dir + "/" + kind + ".lpx"
			ix, err := CreateIndex(path, kind, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.BulkLoad(recs); err != nil {
				t.Fatal(err)
			}
			// Empty the middle leaves.
			for _, r := range recs[n/4 : 3*n/4] {
				if !ix.Delete(r.Key) {
					t.Fatalf("delete(%d) = false", r.Key)
				}
			}
			footprint := ix.Stats().DataBytes
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}

			ix, err = OpenIndex(path, kind, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("reopened: %v", err)
			}
			if ix.Len() != n/2 {
				t.Fatalf("reopened Len = %d, want %d", ix.Len(), n/2)
			}
			// Empty the index, then rebuild all n records into it: a bulk
			// load packs exactly the original page count, so equality holds
			// only if the reopened free list still hands the pages back.
			for _, r := range recs[:n/4] {
				if !ix.Delete(r.Key) {
					t.Fatalf("delete(%d) = false", r.Key)
				}
			}
			for _, r := range recs[3*n/4:] {
				if !ix.Delete(r.Key) {
					t.Fatalf("delete(%d) = false", r.Key)
				}
			}
			if err := ix.BulkLoad(recs); err != nil {
				t.Fatalf("reload: %v", err)
			}
			if got := ix.Stats().DataBytes; got != footprint {
				t.Fatalf("reload footprint %d, want %d (free list lost on reopen)", got, footprint)
			}
			for i := 0; i < n; i += 53 {
				r := recs[i]
				if v, ok := ix.Get(r.Key); !ok || v != r.Value {
					t.Fatalf("reloaded Get(%d) = (%d,%v)", r.Key, v, ok)
				}
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
