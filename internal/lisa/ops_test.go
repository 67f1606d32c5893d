package lisa

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
)

// FuzzLISAOps decodes a byte stream into inserts, deletes, lookups and
// rectangle searches on a 16 x 16 lattice with four values, over an index
// built from 64 lattice points with 8-record shards that merge after 4
// inserts, so merges, splits, equal points and cells emptied by deletes come
// within a few dozen operations. Every answer is checked against a slice of
// the records, and the invariants after every step, for up to 300 steps.
func FuzzLISAOps(f *testing.F) {
	f.Add([]byte{0, 9, 0, 1, 200, 3, 2, 9, 0, 3, 0, 255, 3, 9, 17})
	f.Add(bytes.Repeat([]byte{0, 37, 1, 1, 250, 2, 3, 37, 136}, 60))
	f.Add(bytes.Repeat([]byte{0, 17, 0, 2, 17, 0, 1, 17, 2}, 40))
	point := func(b byte) core.Point { return core.Point{float64(b & 15), float64(b >> 4)} }
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*300 {
			return // every step checks every record: a longer input is slow to run and to minimize
		}
		var model []core.PV
		for i := range 64 {
			model = append(model, core.PV{Point: point(byte(i * 37)), Value: core.Value(i % 4)})
		}
		ix, err := Build(slices.Clone(model), Config{GridCols: 4, ShardSize: 8, DeltaCap: 4})
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 3 {
			op, a, b := data[0]%4, data[1], data[2]
			data = data[3:]
			p, v := point(a), core.Value(b&3)
			switch op {
			case 0, 1:
				if err := ix.Insert(p, v); err != nil {
					t.Fatal(err)
				}
				model = append(model, core.PV{Point: p, Value: v})
			case 2:
				i := slices.IndexFunc(model, func(pv core.PV) bool { return pv.Point.Equal(p) && pv.Value == v })
				if got := ix.Delete(p, v); got != (i >= 0) {
					t.Fatalf("Delete(%v, %d) = %v, the records hold it: %v", p, v, got, i >= 0)
				}
				if i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
			default:
				got, ok := ix.Lookup(p)
				if want := slices.ContainsFunc(model, func(pv core.PV) bool { return pv.Point.Equal(p) && (!ok || pv.Value == got) }); ok != want {
					t.Fatalf("Lookup(%v) = %d, %v; the records hold it: %v", p, got, ok, want)
				}
				q := point(b)
				rect := core.Rect{Min: core.Point{min(p[0], q[0]), min(p[1], q[1])}, Max: core.Point{max(p[0], q[0]), max(p[1], q[1])}}
				var found, want []string
				ix.Search(rect, func(pv core.PV) bool { found = append(found, fmt.Sprint(pv)); return true })
				for _, pv := range model {
					if rect.Contains(pv.Point) {
						want = append(want, fmt.Sprint(pv))
					}
				}
				sort.Strings(found)
				if sort.Strings(want); !slices.Equal(found, want) {
					t.Fatalf("Search(%v) = %v, want %v", rect, found, want)
				}
			}
			if ix.Len() != len(model) {
				t.Fatalf("Len %d, %d records", ix.Len(), len(model))
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// breakRun builds a valid index and applies mutate to its runs in turn
// until one reports that it broke something, then returns CheckInvariants'
// verdict.
func breakRun(t *testing.T, mutate func(ix *Index, r *run) bool) error {
	t.Helper()
	pts, _ := dataset.Points(dataset.SOSMLike, 4000, 2, 1312)
	ix, err := Build(dataset.PV(pts), Config{ShardSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range ix.shards {
		if mutate(ix, &sh.base) {
			return ix.CheckInvariants()
		}
	}
	t.Fatal("no run to break")
	return nil
}

// TestCheckInvariantsCatchesCellIndexEntry repeats a run's first cell-index
// entry, so the index lists one cell twice, and expects the check to name
// the entry.
func TestCheckInvariantsCatchesCellIndexEntry(t *testing.T) {
	err := breakRun(t, func(_ *Index, r *run) bool {
		r.cells = slices.Insert(r.cells, 0, r.cells[0])
		return true
	})
	if err == nil || !strings.Contains(err.Error(), "cell index entry") {
		t.Fatalf("a cell listed twice: %v", err)
	}
}

// TestCheckInvariantsCatchesMovedCell moves a record outside the lowest row
// to the lowest row, into another cell than the one the index files it
// under, and expects the check to name the cell.
func TestCheckInvariantsCatchesMovedCell(t *testing.T) {
	err := breakRun(t, func(ix *Index, r *run) bool {
		for i, rank := range r.ranks() {
			if int(rank)%ix.cfg.GridCols != 0 {
				r.pts.At(i)[1] = math.Inf(-1)
				return true
			}
		}
		return false
	})
	if err == nil || !strings.Contains(err.Error(), "is indexed in cell") {
		t.Fatalf("a record moved to another cell: %v", err)
	}
}

// TestCheckInvariantsCatchesUnsortedCell swaps two records of one cell with
// different coordinate 0, and expects the check to name the order.
func TestCheckInvariantsCatchesUnsortedCell(t *testing.T) {
	err := breakRun(t, func(_ *Index, r *run) bool {
		ranks := r.ranks()
		for i := 0; i+1 < len(ranks); i++ {
			if a, b := r.pts.At(i), r.pts.At(i+1); ranks[i] == ranks[i+1] && a[0] < b[0] {
				for d := range a {
					a[d], b[d] = b[d], a[d]
				}
				return true
			}
		}
		return false
	})
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("a cell out of coordinate 0 order: %v", err)
	}
}
