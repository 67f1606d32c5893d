package bench

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestCompareRatioGate pins the floor check every gate ends in: a ratio at
// or above the floor passes, anything below fails with the offending
// "name: ratio < floor" line, and a side that measured nothing fails loudly
// instead of passing by default.
func TestCompareRatioGate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name     string
		got, ref float64
		min      float64
		wantErr  string // "" = passes
	}{
		{"above floor", 95, 100, 0.9, ""},
		{"exactly at floor", 90, 100, 0.9, ""},
		{"exactly at floor, unit reference", 0.9, 1, 0.9, ""},
		{"one ulp below floor", math.Nextafter(0.9, 0), 1, 0.9, "x: 0.900 < 0.9"},
		{"below floor", 89, 100, 0.9, "x: 0.890 < 0.9"},
		{"well below floor", 42, 100, 0.9, "x: 0.420 < 0.9"},
		{"wide floor met", 300, 100, 3, ""},
		{"wide floor missed", 299, 100, 3, "x: 2.990 < 3"},
		{"reference measured zero", 100, 0, 0.9, "no ratio"},
		{"reference missing (NaN)", 100, nan, 0.9, "no ratio"},
		{"reference negative", 100, -1, 0.9, "no ratio"},
		{"gated side measured zero", 0, 100, 0.9, "no ratio"},
		{"gated side NaN", nan, 100, 0.9, "no ratio"},
		{"both infinite", math.Inf(1), math.Inf(1), 0.9, "x: NaN < 0.9"},
	}
	for _, c := range cases {
		err := floor{name: "x", got: c.got, ref: c.ref, min: c.min}.check()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v, want pass", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: passed, want an error containing %q", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q, want it to contain %q", c.name, err, c.wantErr)
		}
	}
}

// TestABMedianSchedule drives abMedian with instrumented sides: every slice
// runs each side exactly once, the side going first alternates across
// slices and across rounds, every round gets fresh instances that are
// released before the next is built, and the result is the harmonic-mean
// pair of the round whose ratio is the median.
func TestABMedianSchedule(t *testing.T) {
	const rounds, slices = 3, 2
	// Round r's side a runs its two slices at 1*k and 3*k (harmonic mean
	// 1.5k), side b at a constant c. Ratios: 3, 0.15, 1.5 — the median
	// round is the last, where neither side has its own median.
	scale := [rounds][2]float64{{2, 1}, {1, 10}, {4, 4}}

	var calls []string // "<round>:<side>" in call order, "done" at each release
	round, live := -1, false
	aMed, bMed, err := abMedian(rounds, slices, func() (side, side, func(), error) {
		if live {
			t.Error("fresh called before the previous round was released")
		}
		round++
		r, nA := round, 0
		live = true
		a := func() (float64, error) {
			calls = append(calls, string(rune('0'+r))+":a")
			nA++
			return scale[r][0] * float64(2*nA-1), nil // 1k, then 3k
		}
		b := func() (float64, error) {
			calls = append(calls, string(rune('0'+r))+":b")
			return scale[r][1], nil
		}
		return a, b, func() { live = false; calls = append(calls, "done") }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aMed-6) > 1e-9 || bMed != 4 {
		t.Errorf("result = (%v, %v), want the median-ratio round's harmonic means (6, 4)", aMed, bMed)
	}
	want := []string{
		"0:a", "0:b", "0:b", "0:a", "done", // round 0: a first, then b first
		"1:b", "1:a", "1:a", "1:b", "done", // round 1 starts with b
		"2:a", "2:b", "2:b", "2:a", "done",
	}
	if strings.Join(calls, " ") != strings.Join(want, " ") {
		t.Errorf("schedule =\n  %v\nwant\n  %v", calls, want)
	}

	// A failing side stops the run, releases the round and reports the error.
	boom := errors.New("boom")
	released := false
	_, _, err = abMedian(rounds, slices, func() (side, side, func(), error) {
		ok := func() (float64, error) { return 1, nil }
		bad := func() (float64, error) { return 0, boom }
		return ok, bad, func() { released = true }, nil
	})
	if !errors.Is(err, boom) || !released {
		t.Errorf("failing side: err = %v, released = %v", err, released)
	}
}

// wantFloors checks that a gate reported exactly the documented floors.
func wantFloors(t *testing.T, floors []floor, want map[string]float64) {
	t.Helper()
	if len(floors) != len(want) {
		t.Errorf("gate reported %d floors, want %d: %+v", len(floors), len(want), floors)
	}
	for _, f := range floors {
		min, ok := want[f.name]
		if !ok || f.min != min {
			t.Errorf("floor %s = %v, want %v (documented: %v)", f.name, f.min, min, ok)
		}
		if !(f.got > 0) || !(f.ref > 0) {
			t.Errorf("floor %s measured %v against %v, want both positive", f.name, f.got, f.ref)
		}
	}
}
