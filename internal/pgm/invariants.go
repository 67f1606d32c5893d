package pgm

import (
	"fmt"
	"math"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/segment"
)

// CheckInvariants verifies the structural invariants of a static PGM-index:
// sorted keys, the arrays kept for keys that collide in float64, per-level
// segment tiling with ascending first keys, and the ε error bound of every
// level-0 prediction.
// It is O(n) and intended for tests (the conform suite calls it through the
// public façade).
func (ix *Index) CheckInvariants() error {
	if (ix.recs != nil && len(ix.recs) != ix.n) || len(ix.keys) != ix.n {
		return fmt.Errorf("pgm: n=%d but len(recs)=%d len(keys)=%d", ix.n, len(ix.recs), len(ix.keys))
	}
	for i := 1; i < ix.n; i++ {
		if ix.keys[i] < ix.keys[i-1] {
			return fmt.Errorf("pgm: keys out of order at %d", i)
		}
		if ix.recs != nil && ix.keys[i] != ix.recs[i].Key {
			return fmt.Errorf("pgm: keys[%d] != recs[%d].Key", i, i)
		}
	}
	if ix.n == 0 {
		return nil
	}
	xs, ys, collide := modelPoints(ix.keys)
	if collide != (ix.distinct != nil) || collide && (len(ix.distinct) != len(xs) || len(ix.firstPos) != len(xs)) {
		return fmt.Errorf("pgm: %d distinct floats kept (%d first positions) for keys that collide in float64: %v", len(ix.distinct), len(ix.firstPos), collide)
	}
	below0 := ix.n
	if collide {
		for i := range xs {
			if ix.distinct[i] != xs[i] || float64(ix.firstPos[i]) != ys[i] {
				return fmt.Errorf("pgm: distinct[%d] = %g first at %d, the keys give %g first at %g", i, ix.distinct[i], ix.firstPos[i], xs[i], ys[i])
			}
		}
		ys, below0 = segment.Positions(len(xs)), len(xs)
	}
	if len(ix.levels) == 0 {
		return fmt.Errorf("pgm: no levels for %d records", ix.n)
	}
	// Per-level: segments tile [0, size-of-level-below) contiguously with
	// ascending first keys; level 0's tile its targets.
	for l, lev := range ix.levels {
		below := below0
		if l > 0 {
			below = len(ix.levels[l-1].segs)
		}
		if len(lev.segs) == 0 {
			return fmt.Errorf("pgm: level %d empty", l)
		}
		if len(lev.firstKeys) != len(lev.segs) {
			return fmt.Errorf("pgm: level %d firstKeys/segs mismatch", l)
		}
		next := 0
		for si, s := range lev.segs {
			if s.StartIdx != next {
				return fmt.Errorf("pgm: level %d segment %d starts at %d, want %d", l, si, s.StartIdx, next)
			}
			if s.EndIdx <= s.StartIdx {
				return fmt.Errorf("pgm: level %d segment %d empty [%d,%d)", l, si, s.StartIdx, s.EndIdx)
			}
			if lev.firstKeys[si] != s.FirstKey {
				return fmt.Errorf("pgm: level %d firstKeys[%d] != segment FirstKey", l, si)
			}
			if si > 0 && s.FirstKey <= lev.segs[si-1].FirstKey {
				return fmt.Errorf("pgm: level %d FirstKey not ascending at %d", l, si)
			}
			if s.LastKey < s.FirstKey {
				return fmt.Errorf("pgm: level %d segment %d LastKey < FirstKey", l, si)
			}
			next = s.EndIdx
		}
		if next != below {
			return fmt.Errorf("pgm: level %d tiles [0,%d), want [0,%d)", l, next, below)
		}
	}
	// ε-bound: every level-0 prediction of a distinct key lands within
	// eps+1 of its target (BuildOptimal guarantees ≤ eps; +1 absorbs the
	// rounding the lookup path also allows for), and every segment starts
	// at a distinct key's target.
	segs := ix.levels[0].segs
	si := -1
	for i, x := range xs {
		y := int(ys[i])
		if si+1 < len(segs) && y >= segs[si+1].StartIdx {
			si++
			if y != segs[si].StartIdx || x != segs[si].FirstKey {
				return fmt.Errorf("pgm: level 0 segment %d starts at %d key %g, the distinct key there is %g at %d", si, segs[si].StartIdx, segs[si].FirstKey, x, y)
			}
		}
		pred := math.Round(segs[si].Predict(x))
		if diff := math.Abs(pred - float64(y)); diff > float64(ix.eps)+1 {
			return fmt.Errorf("pgm: ε-bound violated at distinct key %g: |%g-%d| = %g > eps+1 = %d",
				x, pred, y, diff, ix.eps+1)
		}
	}
	return nil
}

// CheckInvariants verifies the dynamic PGM: sorted insertion buffer, valid
// static levels (each checked recursively), and a live count that matches a
// full merged scan.
func (d *Dynamic) CheckInvariants() error {
	for i := 1; i < len(d.buf); i++ {
		if d.buf[i].key <= d.buf[i-1].key {
			return fmt.Errorf("pgm-dynamic: buffer not strictly ascending at %d", i)
		}
	}
	if len(d.buf) >= d.bufCap {
		return fmt.Errorf("pgm-dynamic: buffer size %d at or above capacity %d (flush missed)", len(d.buf), d.bufCap)
	}
	if len(d.levels) != len(d.tombs) {
		return fmt.Errorf("pgm-dynamic: levels/tombs length mismatch %d != %d", len(d.levels), len(d.tombs))
	}
	for i, ix := range d.levels {
		if ix == nil {
			continue
		}
		if err := ix.CheckInvariants(); err != nil {
			return fmt.Errorf("pgm-dynamic: level %d: %w", i, err)
		}
	}
	live := 0
	prev := core.Key(0)
	first := true
	var scanErr error
	d.Range(0, ^core.Key(0), func(k core.Key, _ core.Value) bool {
		if !first && k <= prev {
			scanErr = fmt.Errorf("pgm-dynamic: merged scan not strictly ascending at key %d", k)
			return false
		}
		first, prev = false, k
		live++
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if live != d.liveCnt {
		return fmt.Errorf("pgm-dynamic: live scan found %d records, liveCnt=%d", live, d.liveCnt)
	}
	return nil
}
