package core

import (
	"reflect"
	"sort"
	"testing"
)

// mergeEntry is one entry of a test source: a record, or a tombstone.
type mergeEntry struct {
	key  Key
	val  Value
	dead bool
}

// mergeByMap is MergeNewestFirst's oracle: apply the sources oldest to
// newest into a map, then list what is left in key order.
func mergeByMap(srcs [][]mergeEntry) []mergeEntry {
	m := map[Key]mergeEntry{}
	for s := len(srcs) - 1; s >= 0; s-- {
		for _, e := range srcs[s] {
			m[e.key] = e
		}
	}
	out := make([]mergeEntry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// checkMerge merges srcs the way a caller of MergeNewestFirst does —
// keeping each visited entry, or dropping tombstones when dropDead, and
// stopping once limit entries are kept (never when limit < 0) — and
// requires the map oracle's answer.
func checkMerge(t *testing.T, srcs [][]mergeEntry, dropDead bool, limit int) {
	t.Helper()
	lens := make([]int, len(srcs))
	for s := range srcs {
		lens[s] = len(srcs[s])
	}
	got := []mergeEntry{}
	stopped := false
	MergeNewestFirst(lens, func(s, i int) Key { return srcs[s][i].key }, func(s, from, to int) bool {
		if stopped || from >= to {
			t.Fatalf("visit(%d, %d, %d) after stopped=%v", s, from, to, stopped)
		}
		for _, e := range srcs[s][from:to] {
			if stopped = len(got) == limit; stopped {
				return false
			}
			if !e.dead || !dropDead {
				got = append(got, e)
			}
		}
		return true
	})
	want := []mergeEntry{}
	for _, e := range mergeByMap(srcs) {
		if len(want) != limit && (!e.dead || !dropDead) {
			want = append(want, e)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sources %v (dropDead=%v, limit %d):\nmerge %v\nmap   %v", srcs, dropDead, limit, got, want)
	}
}

func TestMergeNewestFirstMatchesMapOracle(t *testing.T) {
	live := func(k Key, v Value) mergeEntry { return mergeEntry{key: k, val: v} }
	dead := func(k Key) mergeEntry { return mergeEntry{key: k, dead: true} }
	// Twelve sources, more than MergeNewestFirst keeps on its stack: source
	// s holds s, s+1 and 20, each valued by its source.
	var many [][]mergeEntry
	for s := 0; s < 12; s++ {
		many = append(many, []mergeEntry{live(Key(s), Value(s)), live(Key(s+1), Value(s)), live(20, Value(s))})
	}
	// hundred holds 0-99; ahead holds 0-64 and then 1000, so its first run
	// under a newer 500 is one longer than MergeNewestFirst looks ahead.
	var hundred, ahead []mergeEntry
	for k := Key(0); k < 100; k++ {
		hundred = append(hundred, live(k, 2))
		if k <= 64 {
			ahead = append(ahead, live(k, 3))
		}
	}
	ahead = append(ahead, live(1000, 3))
	for _, c := range []struct {
		name     string
		srcs     [][]mergeEntry
		dropDead bool
		limit    int
	}{
		{"no sources", nil, false, -1},
		{"empty sources", [][]mergeEntry{nil, {}, nil}, false, -1},
		{"single source", [][]mergeEntry{{live(1, 10), live(5, 50), dead(7)}}, false, -1},
		{"single source among empty ones", [][]mergeEntry{{}, {live(1, 10), dead(7)}, {}}, true, -1},
		{"key in every source", [][]mergeEntry{{live(3, 1)}, {live(3, 2)}, {dead(3)}, {live(3, 4)}}, false, -1},
		{"newest is a tombstone, dropped", [][]mergeEntry{{dead(2), live(4, 1)}, {live(2, 9), live(3, 9), live(4, 9)}}, true, -1},
		{"newest is a tombstone, kept", [][]mergeEntry{{dead(2), live(4, 1)}, {live(2, 9), live(3, 9), live(4, 9)}}, false, -1},
		{"older tombstones shadowed", [][]mergeEntry{{live(2, 1)}, {dead(2), dead(3)}}, true, -1},
		{"early stop", [][]mergeEntry{{live(1, 1), live(4, 1)}, {live(2, 2), live(3, 2), live(5, 2)}}, false, 3},
		{"stop at the first", [][]mergeEntry{{live(1, 1)}, {live(1, 2), live(2, 2)}}, false, 1},
		{"stop counts kept entries only", [][]mergeEntry{{dead(1), live(2, 1)}, {live(1, 2), live(3, 2)}}, true, 1},
		{"sources run out at different times", [][]mergeEntry{
			{live(9, 1)},
			{live(1, 2), live(2, 2), live(3, 2), live(10, 2)},
			{},
			{live(0, 4), dead(2), live(11, 4)},
		}, false, -1},
		{"more sources than fit on the stack", many, false, -1},
		{"long runs between a few newer entries", [][]mergeEntry{
			{live(17, 1), dead(50), live(51, 1), live(99, 1), live(300, 1)},
			hundred,
		}, true, -1},
		{"stop inside a long run", [][]mergeEntry{{live(60, 1)}, hundred}, false, 42},
		{"a run longer than the look-ahead", [][]mergeEntry{{live(500, 1)}, ahead}, false, -1},
	} {
		t.Run(c.name, func(t *testing.T) { checkMerge(t, c.srcs, c.dropDead, c.limit) })
	}
}

// FuzzMergeNewestFirst merges 1-12 random sources over a 64-key space, so
// most keys sit in several sources, against the map oracle. Each byte pair
// of data is one entry: the first byte picks the source (and, in its top
// bit, a tombstone), the second the key; a key's last entry in a source
// is the one the source holds.
func FuzzMergeNewestFirst(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 1, 2, 1, 0x81, 5}, false, int8(-1))
	f.Add([]byte{11, 0, 7, 5, 7, 9, 7, 0x8a, 7, 3, 2, 3, 60}, true, int8(2))
	f.Add([]byte{0}, false, int8(0))
	f.Fuzz(func(t *testing.T, data []byte, dropDead bool, limit int8) {
		if len(data) == 0 {
			return
		}
		srcs := make([][]mergeEntry, 1+int(data[0])%12)
		for p := 1; p+1 < len(data); p += 2 {
			s := int(data[p]&0x7f) % len(srcs)
			srcs[s] = append(srcs[s], mergeEntry{key: Key(data[p+1] % 64), val: Value(p), dead: data[p]&0x80 != 0})
		}
		for s, src := range srcs {
			sort.SliceStable(src, func(i, j int) bool { return src[i].key < src[j].key })
			var distinct []mergeEntry
			for i, e := range src {
				if i+1 == len(src) || src[i+1].key != e.key {
					distinct = append(distinct, e)
				}
			}
			srcs[s] = distinct
		}
		checkMerge(t, srcs, dropDead, int(limit))
	})
}
