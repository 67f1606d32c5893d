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

// capIndex embeds mapIndex and adds native batch capabilities that
// record whether they were used and attribute fixed stage times, so
// dispatch and span forwarding can be asserted; writes return err.
type capIndex struct {
	*mapIndex
	batched int
	err     error
}

func (x *capIndex) LookupBatch(keys []Key, vals []Value, oks []bool, sp *Span) {
	x.batched++
	sp.Add(StageShard, 7)
	for i, k := range keys {
		vals[i], oks[i] = x.Get(k)
	}
}

func (x *capIndex) InsertBatch(recs []KV, sp *Span) error {
	x.batched++
	sp.Add(StageWAL, 9)
	for _, r := range recs {
		x.Insert(r.Key, r.Value)
	}
	return x.err
}

func (x *capIndex) DeleteBatch(keys []Key, oks []bool, sp *Span) error {
	x.batched++
	sp.Add(StageWAL, 11)
	for i, k := range keys {
		oks[i] = x.Delete(k)
	}
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

func TestBatchFallbacks(t *testing.T) {
	ix := newMapIndex()
	if err := InsertBatch(ix, []KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 1, Value: 11}}, nil); err != nil {
		t.Fatalf("InsertBatch fallback: %v", err)
	}
	if v, ok := ix.Get(1); !ok || v != 11 {
		t.Fatalf("later-wins fallback: Get(1) = (%d, %v), want (11, true)", v, ok)
	}
	// Result buffers are caller-owned: stale content must be overwritten.
	vals, oks := []Value{9, 9, 9}, []bool{true, true, true}
	LookupBatch(ix, []Key{1, 2, 3}, vals, oks, nil)
	if !reflect.DeepEqual(vals, []Value{11, 20, 0}) || !reflect.DeepEqual(oks, []bool{true, true, false}) {
		t.Fatalf("LookupBatch fallback = %v, %v", vals, oks)
	}
	got := CollectRange(ix, 0, ^Key(0))
	want := []KV{{Key: 1, Value: 11}, {Key: 2, Value: 20}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CollectRange = %v, want %v", got, want)
	}
	if out := CollectRange(ix, 10, 5); out == nil || len(out) != 0 {
		t.Fatalf("CollectRange inverted interval = %v, want non-nil empty", out)
	}
	dels := []bool{false, true, true}
	if err := DeleteBatch(ix, []Key{2, 2, 9}, dels, nil); err != nil {
		t.Fatalf("DeleteBatch fallback: %v", err)
	}
	if !reflect.DeepEqual(dels, []bool{true, false, false}) {
		t.Fatalf("DeleteBatch fallback = %v, want [true false false]", dels)
	}

	// A live span over an index without capabilities: each loop is timed
	// as the shard stage and no other stage is invented.
	var sp Span
	sp.Reset(1)
	LookupBatch(ix, []Key{1}, vals[:1], oks[:1], &sp)
	InsertBatch(ix, []KV{{Key: 4, Value: 40}}, &sp)
	DeleteBatch(ix, []Key{4}, dels[:1], &sp)
	if sp.Stage(StageShard) <= 0 {
		t.Fatal("fallback path recorded no shard time")
	}
	if sp.Stage(StageWAL) != 0 {
		t.Fatal("fallback path invented WAL time")
	}
}

func TestBatchDispatch(t *testing.T) {
	ix := &capIndex{mapIndex: newMapIndex()}
	var sp Span
	sp.Reset(3)
	if err := InsertBatch(ix, []KV{{Key: 5, Value: 50}}, &sp); err != nil {
		t.Fatal(err)
	}
	LookupBatch(ix, []Key{5}, make([]Value, 1), make([]bool, 1), &sp)
	if err := DeleteBatch(ix, []Key{5}, make([]bool, 1), &sp); err != nil {
		t.Fatal(err)
	}
	if out := CollectRange(ix, 0, ^Key(0)); out == nil || len(out) != 0 {
		t.Fatalf("CollectRange did not normalize nil SearchRange result: %v", out)
	}
	if ix.batched != 4 {
		t.Fatalf("native capabilities used %d times, want 4", ix.batched)
	}
	// The span reaches the capability, which owns its attribution: the
	// helper adds nothing on top.
	if got := sp.Stage(StageWAL); got != 20 {
		t.Fatalf("span WAL stage = %d, want 20 (9+11)", got)
	}
	if got := sp.Stage(StageShard); got != 7 {
		t.Fatalf("span shard stage = %d, want 7", got)
	}

	// A write capability's error is the helper's error.
	ix.err = errors.New("disk on fire")
	if err := InsertBatch(ix, []KV{{Key: 6, Value: 60}}, nil); err != ix.err {
		t.Fatalf("InsertBatch error = %v, want %v", err, ix.err)
	}
	if err := DeleteBatch(ix, []Key{6}, make([]bool, 1), nil); err != ix.err {
		t.Fatalf("DeleteBatch error = %v, want %v", err, ix.err)
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
