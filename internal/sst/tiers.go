package sst

import "github.com/lix-go/lix/internal/core"

// Tiers is a read view over a set of open runs ordered newest first — the
// LSM resolution rule in one place: the newest run that speaks for a key
// (live record or tombstone) wins, older runs are shadowed.
type Tiers struct {
	runs []*Reader // newest first
}

// NewTiers builds a view over runs, which must be ordered newest first.
func NewTiers(runs []*Reader) *Tiers { return &Tiers{runs: runs} }

// Get resolves k across the tiers, newest run first.
func (t *Tiers) Get(k core.Key) (core.Value, bool, error) {
	for _, r := range t.runs {
		v, st, err := r.Get(k)
		if err != nil {
			return 0, false, err
		}
		switch st {
		case Found:
			return v, true, nil
		case Deleted:
			return 0, false, nil
		}
	}
	return 0, false, nil
}

// Runs returns the underlying readers, newest first.
func (t *Tiers) Runs() []*Reader { return t.runs }

// Counters sums the lookup counters across all runs.
func (t *Tiers) Counters() Counters {
	var c Counters
	for _, r := range t.runs {
		c.Add(r.Counters())
	}
	return c
}

// key is the i-th key of d's live list (list 0) or tombstones (list 1).
func (d *FileData) key(list, i int) core.Key {
	if list == 0 {
		return d.Live[i].Key
	}
	return d.Dead[i]
}

// MergeData merges runs (ordered newest first) into one logical run in a
// single linear pass: for each key the newest entry wins. When dropDead is
// true tombstones are dropped from the output — legal only when the merge
// includes the store's oldest run, otherwise a dropped tombstone would
// resurrect a shadowed record below. The merged Seq is the maximum across
// inputs. Inputs may be empty; they are not modified.
func MergeData(newestFirst []*FileData, dropDead bool) *FileData {
	out := &FileData{}
	// Source 2r is run r's live list and 2r+1 its tombstones; the two share
	// no key, so which of them counts as the newer never decides a tie.
	lens := make([]int, 0, 2*len(newestFirst))
	live := 0
	for _, d := range newestFirst {
		lens = append(lens, len(d.Live), len(d.Dead))
		out.Seq = max(out.Seq, d.Seq)
		live += len(d.Live)
	}
	out.Live = make([]core.KV, 0, live)
	core.MergeNewestFirst(lens, func(s, i int) core.Key {
		return newestFirst[s/2].key(s%2, i)
	}, func(s, from, to int) bool {
		if d := newestFirst[s/2]; s%2 == 0 {
			// Where runs interleave, stretches are short: an element
			// loop, not a memmove call per stretch.
			for _, kv := range d.Live[from:to] {
				out.Live = append(out.Live, kv)
			}
		} else if !dropDead {
			out.Dead = append(out.Dead, d.Dead[from:to]...)
		}
		return true
	})
	return out
}
