package core

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// mapIndex is a minimal index with no batch capabilities: every dispatch
// helper must fall back to its per-record loop.
type mapIndex struct {
	m map[Key]Value
}

func newMapIndex() *mapIndex { return &mapIndex{m: map[Key]Value{}} }

func (x *mapIndex) Get(k Key) (Value, bool) { v, ok := x.m[k]; return v, ok }
func (x *mapIndex) Insert(k Key, v Value)   { x.m[k] = v }
func (x *mapIndex) Delete(k Key) bool {
	_, ok := x.m[k]
	delete(x.m, k)
	return ok
}
func (x *mapIndex) Range(lo, hi Key, fn func(Key, Value) bool) int {
	keys := make([]Key, 0, len(x.m))
	for k := range x.m {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := 0
	for _, k := range keys {
		n++
		if !fn(k, x.m[k]) {
			break
		}
	}
	return n
}

// capIndex embeds mapIndex and adds the native batch and commit
// capabilities, which record whether they were used and attribute fixed
// stage times, so dispatch and span forwarding can be asserted; writes
// return err.
type capIndex struct {
	*mapIndex
	batched int
	err     error
}

func (x *capIndex) Apply(ops []Op, vals []Value, oks []bool, sp *Span) error {
	x.batched++
	sp.Add(StageShard, 7)
	for i, op := range ops {
		switch op.Kind {
		case OpGet:
			vals[i], oks[i] = x.Get(op.Key)
		case OpPut:
			x.Insert(op.Key, op.Val)
		case OpDel:
			oks[i] = x.Delete(op.Key)
		}
	}
	return x.err
}

func (x *capIndex) Commit(sp *Span) error {
	x.batched++
	sp.Add(StageWAL, 9)
	return x.err
}

func (x *capIndex) SearchRange(lo, hi Key) []KV {
	x.batched++
	// Deliberately return nil for empty results: CollectRange must
	// normalize it to an empty slice.
	var out []KV
	x.Range(lo, hi, func(k Key, v Value) bool {
		out = append(out, KV{Key: k, Value: v})
		return true
	})
	return out
}

// TestBatchFallbacks: over an index without capabilities Apply is a point
// loop with sequential semantics (later-wins puts, first-wins deletes) that
// overwrites the caller's stale answers, Commit is a no-op, and
// CollectRange scans.
func TestBatchFallbacks(t *testing.T) {
	ix := newMapIndex()
	ops := []Op{
		{Kind: OpPut, Key: 1, Val: 10}, {Kind: OpPut, Key: 2, Val: 20}, {Kind: OpPut, Key: 1, Val: 11},
		{Kind: OpGet, Key: 1}, {Kind: OpGet, Key: 2}, {Kind: OpGet, Key: 3},
		{Kind: OpDel, Key: 2}, {Kind: OpDel, Key: 2}, {Kind: OpDel, Key: 9}, {Kind: OpGet, Key: 2},
	}
	// Result buffers are caller-owned: stale content must be overwritten.
	vals, oks := make([]Value, len(ops)), make([]bool, len(ops))
	for i := range oks {
		vals[i], oks[i] = 9, true
	}
	if err := Apply(ix, ops, vals, oks, nil); err != nil {
		t.Fatalf("Apply fallback: %v", err)
	}
	if !reflect.DeepEqual(vals[3:6], []Value{11, 20, 0}) || !reflect.DeepEqual(oks[3:10], []bool{true, true, false, true, false, false, false}) {
		t.Fatalf("Apply fallback answered %v, %v", vals, oks)
	}
	if err := Commit(ix, nil); err != nil {
		t.Fatalf("Commit without the capability: %v", err)
	}
	got := CollectRange(ix, 0, ^Key(0))
	want := []KV{{Key: 1, Value: 11}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CollectRange = %v, want %v", got, want)
	}
	if out := CollectRange(ix, 10, 5); out == nil || len(out) != 0 {
		t.Fatalf("CollectRange inverted interval = %v, want non-nil empty", out)
	}

	// A live span over an index without capabilities: the loop is timed as
	// the shard stage and no other stage is invented.
	var sp Span
	sp.Reset(1)
	Apply(ix, ops[:4], vals[:4], oks[:4], &sp)
	Commit(ix, &sp)
	if sp.Stage(StageShard) <= 0 {
		t.Fatal("fallback path recorded no shard time")
	}
	if sp.Stage(StageWAL) != 0 {
		t.Fatal("fallback path invented WAL time")
	}
}

// TestBatchDispatch: Apply, Commit and CollectRange reach the native
// capabilities, which own the span's attribution and whose errors are the
// helpers' errors.
func TestBatchDispatch(t *testing.T) {
	ix := &capIndex{mapIndex: newMapIndex()}
	var sp Span
	sp.Reset(3)
	vals, oks := make([]Value, 3), make([]bool, 3)
	if err := Apply(ix, []Op{{Kind: OpPut, Key: 5, Val: 50}, {Kind: OpGet, Key: 5}, {Kind: OpDel, Key: 5}}, vals, oks, &sp); err != nil {
		t.Fatal(err)
	}
	if vals[1] != 50 || !oks[1] || !oks[2] {
		t.Fatalf("native Apply answered %v, %v", vals, oks)
	}
	if err := Commit(ix, &sp); err != nil {
		t.Fatal(err)
	}
	if out := CollectRange(ix, 0, ^Key(0)); out == nil || len(out) != 0 {
		t.Fatalf("CollectRange did not normalize nil SearchRange result: %v", out)
	}
	if ix.batched != 3 {
		t.Fatalf("native capabilities used %d times, want 3", ix.batched)
	}
	// The span reaches the capability, which owns its attribution: the
	// helper adds nothing on top.
	if got := sp.Stage(StageWAL); got != 9 {
		t.Fatalf("span WAL stage = %d, want 9", got)
	}
	if got := sp.Stage(StageShard); got != 7 {
		t.Fatalf("span shard stage = %d, want 7", got)
	}

	// A write capability's error is the helper's error.
	ix.err = errors.New("disk on fire")
	if err := Apply(ix, []Op{{Kind: OpPut, Key: 6, Val: 60}}, vals[:1], oks[:1], nil); err != ix.err {
		t.Fatalf("Apply error = %v, want %v", err, ix.err)
	}
	if err := Commit(ix, nil); err != ix.err {
		t.Fatalf("Commit error = %v, want %v", err, ix.err)
	}
}

func TestSpanNilAndStages(t *testing.T) {
	var sp *Span
	sp.Add(StageWAL, time.Second)
	sp.End(StageWAL, sp.Begin())
	if !sp.Begin().IsZero() {
		t.Fatal("nil span read the clock")
	}
	if sp.Stage(StageWAL) != 0 || sp.Total() != 0 || sp.Ops() != 0 || sp.Timeline() != "" {
		t.Fatal("nil span returned non-zero state")
	}
	want := []string{"decode", "dispatch", "shard", "wal", "fsync", "flush"}
	for st := Stage(0); st < NumStages; st++ {
		if st.String() != want[st] {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st, want[st])
		}
	}
	if s := Stage(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown stage renders %q", s)
	}
}
