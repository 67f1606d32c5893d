package core

import "testing"

// captureRecorder stores every recorded search.
type captureRecorder struct {
	probes, windows []int
}

func (c *captureRecorder) RecordSearch(probes, window int) {
	c.probes = append(c.probes, probes)
	c.windows = append(c.windows, window)
}

func sortedKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(3 * i)
	}
	return keys
}

func TestSearchRecorderLifecycle(t *testing.T) {
	if ActiveSearchRecorder() != nil {
		t.Fatal("recorder set at test start")
	}
	rec := &captureRecorder{}
	SetSearchRecorder(rec)
	defer SetSearchRecorder(nil)
	if ActiveSearchRecorder() == nil {
		t.Fatal("ActiveSearchRecorder nil after set")
	}
	SetSearchRecorder(nil)
	if ActiveSearchRecorder() != nil {
		t.Fatal("recorder survives nil set")
	}
}

func TestSearchRangeRecords(t *testing.T) {
	keys := sortedKeys(1000)
	rec := &captureRecorder{}
	SetSearchRecorder(rec)
	defer SetSearchRecorder(nil)

	want := SearchRange(keys, 301, 80, 140)
	SetSearchRecorder(nil)
	plain := SearchRange(keys, 301, 80, 140)
	if want != plain {
		t.Fatalf("recorded SearchRange = %d, plain = %d", want, plain)
	}
	if len(rec.probes) != 1 {
		t.Fatalf("recorded %d searches, want 1", len(rec.probes))
	}
	if rec.windows[0] != 60 {
		t.Fatalf("window = %d, want 60", rec.windows[0])
	}
	// Binary search over a window of 60 takes ceil(log2(60)) = 6 probes.
	if rec.probes[0] != 6 {
		t.Fatalf("probes = %d, want 6", rec.probes[0])
	}
}

func TestSearchRangeKVRecords(t *testing.T) {
	recs := make([]KV, 256)
	for i := range recs {
		recs[i] = KV{Key: Key(2 * i), Value: Value(i)}
	}
	rec := &captureRecorder{}
	SetSearchRecorder(rec)
	defer SetSearchRecorder(nil)

	got := SearchRangeKV(recs, 100, 0, len(recs))
	if got != 50 {
		t.Fatalf("SearchRangeKV = %d, want 50", got)
	}
	if len(rec.probes) != 1 || rec.windows[0] != 256 || rec.probes[0] != 8 {
		t.Fatalf("recorded (probes=%v, windows=%v)", rec.probes, rec.windows)
	}
}

func TestExponentialSearchRecordsOnce(t *testing.T) {
	keys := sortedKeys(4096)
	recs := kvs(keys)
	rec := &captureRecorder{}
	SetSearchRecorder(rec)
	defer SetSearchRecorder(nil)

	// Near-exact prediction (distance 0) and a far miss.
	for _, c := range []struct {
		k   Key
		pos int
	}{
		{Key(3 * 2000), 2000}, // exact hit
		{Key(3 * 2000), 100},  // long gallop right
		{Key(3 * 10), 4000},   // long gallop left
		{0, 0},
	} {
		rec.probes, rec.windows = rec.probes[:0], rec.windows[:0]
		got := ExponentialSearch(keys, c.k, c.pos)
		SetSearchRecorder(nil)
		plain := ExponentialSearch(keys, c.k, c.pos)
		SetSearchRecorder(rec)
		if got != plain {
			t.Fatalf("recorded ExponentialSearch(%d, %d) = %d, plain = %d", c.k, c.pos, got, plain)
		}
		if len(rec.probes) != 1 {
			t.Fatalf("ExponentialSearch(%d, %d) recorded %d searches, want exactly 1",
				c.k, c.pos, len(rec.probes))
		}
		// The KV twin: same index, same probe count and window, one record.
		if gotKV := ExponentialSearchKV(recs, c.k, c.pos); gotKV != got {
			t.Fatalf("ExponentialSearchKV(%d, %d) = %d, ExponentialSearch = %d", c.k, c.pos, gotKV, got)
		}
		if len(rec.probes) != 2 || rec.probes[1] != rec.probes[0] || rec.windows[1] != rec.windows[0] {
			t.Fatalf("ExponentialSearchKV(%d, %d) recorded probes %v, windows %v; want one record equal to ExponentialSearch's",
				c.k, c.pos, rec.probes, rec.windows)
		}
	}
	// An exact prediction must cost far fewer probes than a far miss: that
	// gradient is the whole point of recording probes per lookup.
	rec.probes = rec.probes[:0]
	ExponentialSearch(keys, Key(3*2000), 2000)
	exact := rec.probes[0]
	rec.probes = rec.probes[:0]
	ExponentialSearch(keys, Key(3*2000), 10)
	far := rec.probes[0]
	if exact >= far {
		t.Fatalf("exact prediction cost %d probes, far miss %d — no gradient", exact, far)
	}
}

func TestExponentialSearchRecordsEmpty(t *testing.T) {
	rec := &captureRecorder{}
	SetSearchRecorder(rec)
	defer SetSearchRecorder(nil)
	if got := ExponentialSearch(nil, 5, 0); got != 0 {
		t.Fatalf("empty ExponentialSearch = %d", got)
	}
	if got := ExponentialSearchKV(nil, 5, 0); got != 0 {
		t.Fatalf("empty ExponentialSearchKV = %d", got)
	}
	if len(rec.probes) != 2 || rec.probes[0]+rec.probes[1] != 0 || rec.windows[0]+rec.windows[1] != 0 {
		t.Fatalf("empty searches recorded %v/%v", rec.probes, rec.windows)
	}
}

// TestStatsStringGolden pins the Stats rendering: fields whose zero value
// means "not applicable" (Height, Models) are omitted instead of printed
// as an ambiguous 0.
func TestStatsStringGolden(t *testing.T) {
	cases := []struct {
		in   Stats
		want string
	}{
		{
			Stats{Name: "x", Count: 1, IndexBytes: 2, DataBytes: 3, Height: 4, Models: 5},
			"x{n=1 idx=2B data=3B h=4 models=5}",
		},
		{
			Stats{Name: "binary-search", Count: 10, DataBytes: 160, Height: 1},
			"binary-search{n=10 idx=0B data=160B h=1}",
		},
		{
			Stats{Name: "flat", Count: 7, IndexBytes: 64, DataBytes: 112, Models: 3},
			"flat{n=7 idx=64B data=112B models=3}",
		},
		{
			Stats{Name: "empty"},
			"empty{n=0 idx=0B data=0B}",
		},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Stats%+v.String() = %q, want %q", c.in, got, c.want)
		}
	}
}
