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

// cursor walks one run's live and dead lists as a single ascending key
// stream; key is the stream's head while ok.
type cursor struct {
	d    *FileData
	i, j int // next unread Live and Dead entries
	key  core.Key
	ok   bool
}

// head recomputes the cursor's head after i or j moved.
func (c *cursor) head() {
	haveLive, haveDead := c.i < len(c.d.Live), c.j < len(c.d.Dead)
	c.ok = haveLive || haveDead
	switch {
	case haveLive && (!haveDead || c.d.Live[c.i].Key < c.d.Dead[c.j]):
		c.key = c.d.Live[c.i].Key
	case haveDead:
		c.key = c.d.Dead[c.j]
	}
}

// live reports whether the head is a live record rather than a tombstone.
func (c *cursor) live() bool { return c.i < len(c.d.Live) && c.d.Live[c.i].Key == c.key }

// next moves past the head.
func (c *cursor) next() {
	if c.live() {
		c.i++
	} else {
		c.j++
	}
	c.head()
}

// MergeData merges runs (ordered newest first) into one logical run in a
// single linear pass: for each key the newest entry wins. When dropDead is
// true tombstones are dropped from the output — legal only when the merge
// includes the store's oldest run, otherwise a dropped tombstone would
// resurrect a shadowed record below. The merged Seq is the maximum across
// inputs. Inputs may be empty; they are not modified.
func MergeData(newestFirst []*FileData, dropDead bool) *FileData {
	out := &FileData{}
	cur := make([]cursor, len(newestFirst))
	live := 0
	for i, d := range newestFirst {
		cur[i].d = d
		cur[i].head()
		out.Seq = max(out.Seq, d.Seq)
		live += len(d.Live)
	}
	out.Live = make([]core.KV, 0, live)
	for {
		// The smallest key any run still holds; ties go to the newest run,
		// which is the one that speaks for the key.
		win := -1
		for i := range cur {
			if cur[i].ok && (win < 0 || cur[i].key < cur[win].key) {
				win = i
			}
		}
		if win < 0 {
			return out
		}
		k := cur[win].key
		if c := &cur[win]; c.live() {
			out.Live = append(out.Live, c.d.Live[c.i])
		} else if !dropDead {
			out.Dead = append(out.Dead, k)
		}
		// Every run's entry for k, the winner's included, is consumed.
		for i := win; i < len(cur); i++ {
			if cur[i].ok && cur[i].key == k {
				cur[i].next()
			}
		}
	}
}
