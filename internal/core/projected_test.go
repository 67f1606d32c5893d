package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestProjectedSearches holds Seek, from every position whose keys before
// it are below the key sought, and Interval to a binary search over the
// column, with keys at both ends of the 32-bit range: an interval that
// ends at the largest key runs to the end of the column.
func TestProjectedSearches(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		keys := make([]uint32, n)
		for i := range keys {
			switch r.Intn(4) {
			case 0:
				keys[i] = 0
			case 1:
				keys[i] = math.MaxUint32
			default:
				keys[i] = uint32(r.Intn(50)) << 26
			}
		}
		slices.Sort(keys)
		p := Projected{Keys: keys}
		lower := func(k uint32) int { i, _ := slices.BinarySearch(keys, k); return i }
		probes := append(slices.Clone(keys), 1, 1<<30, math.MaxUint32-1)
		for _, k := range probes {
			want := lower(k)
			for from := 0; from <= want; from++ {
				if got := p.Seek(k, from); got != want {
					t.Fatalf("n=%d Seek(%#x, %d) = %d, want %d", n, k, from, got, want)
				}
			}
			for _, hi := range probes {
				lo, end := p.Interval(k, hi)
				wantEnd := len(keys)
				if hi < math.MaxUint32 {
					wantEnd = max(want, lower(hi+1))
				}
				if lo != want || end != wantEnd {
					t.Fatalf("n=%d Interval(%#x, %#x) = [%d, %d), want [%d, %d)", n, k, hi, lo, end, want, wantEnd)
				}
			}
		}
	}
}
