package core

import "sync/atomic"

// SearchRecorder receives per-search instrumentation from the bounded
// last-mile search helpers (SearchRange, SearchRangeKV, ExponentialSearch,
// ExponentialSearchKV).
// A recorder observes the cost model of the paper directly: probes is the
// number of key comparisons the correction step performed, window is the
// width of the error window it searched. obs.Metrics implements this
// interface.
type SearchRecorder interface {
	RecordSearch(probes, window int)
}

type searchRecBox struct{ r SearchRecorder }

// searchRec holds the process-wide recorder. The disabled path — no
// recorder set — costs each search helper a single atomic pointer load and
// branch; the benchmark in search_bench_test.go pins that overhead at
// <= 2 ns/op, and DESIGN.md records the measured numbers.
var searchRec atomic.Pointer[searchRecBox]

// SetSearchRecorder installs r as the process-wide search recorder; nil
// disables recording. Safe to call concurrently with in-flight searches:
// the switch is an atomic pointer swap, and searches that already loaded
// the old recorder finish recording to it.
func SetSearchRecorder(r SearchRecorder) {
	if r == nil {
		searchRec.Store(nil)
		return
	}
	searchRec.Store(&searchRecBox{r: r})
}

// ActiveSearchRecorder returns the installed recorder, or nil when
// recording is disabled.
func ActiveSearchRecorder() SearchRecorder {
	if b := searchRec.Load(); b != nil {
		return b.r
	}
	return nil
}

// searchRangeCounted is the recording twin of the SearchRange loop: same
// result, plus the number of probes performed. The caller has already
// clamped [lo, hi).
func searchRangeCounted(keys []Key, k Key, lo, hi int) (idx, probes int) {
	for lo < hi {
		probes++
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// searchRangeKVCounted is searchRangeCounted over []KV.
func searchRangeKVCounted(recs []KV, k Key, lo, hi int) (idx, probes int) {
	for lo < hi {
		probes++
		mid := int(uint(lo+hi) >> 1)
		if recs[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// exponentialSearchRecorded is the recording twin of ExponentialSearch: it
// counts every gallop comparison plus the probes of the final bounded
// binary search, and records them with the width of the bracketed window.
// It records exactly once per call (the inner search does not re-record).
func exponentialSearchRecorded(keys []Key, k Key, pos int, r SearchRecorder) int {
	n := len(keys)
	if n == 0 {
		r.RecordSearch(0, 0)
		return 0
	}
	if pos < 0 {
		pos = 0
	}
	if pos >= n {
		pos = n - 1
	}
	probes := 1 // the initial keys[pos] comparison
	var lo, hi int
	if keys[pos] < k {
		// Gallop right.
		step := 1
		lo, hi = pos+1, pos+1
		for hi < n && keys[hi] < k {
			probes++
			lo = hi + 1
			step <<= 1
			hi += step
		}
		if hi > n {
			hi = n
		}
	} else {
		// Gallop left.
		step := 1
		lo, hi = pos, pos
		for lo > 0 && keys[lo-1] >= k {
			probes++
			hi = lo
			step <<= 1
			lo -= step
		}
		if lo < 0 {
			lo = 0
		}
	}
	idx, binProbes := searchRangeCounted(keys, k, lo, hi)
	r.RecordSearch(probes+binProbes, hi-lo)
	return idx
}

// exponentialSearchKVRecorded is exponentialSearchRecorded over []KV.
func exponentialSearchKVRecorded(recs []KV, k Key, pos int, r SearchRecorder) int {
	n := len(recs)
	if n == 0 {
		r.RecordSearch(0, 0)
		return 0
	}
	pos = Clamp(pos, 0, n-1)
	probes := 1 // the initial recs[pos] comparison
	var lo, hi int
	if recs[pos].Key < k {
		// Gallop right.
		step := 1
		lo, hi = pos+1, pos+1
		for hi < n && recs[hi].Key < k {
			probes++
			lo = hi + 1
			step <<= 1
			hi += step
		}
		if hi > n {
			hi = n
		}
	} else {
		// Gallop left.
		step := 1
		lo, hi = pos, pos
		for lo > 0 && recs[lo-1].Key >= k {
			probes++
			hi = lo
			step <<= 1
			lo -= step
		}
		if lo < 0 {
			lo = 0
		}
	}
	idx, binProbes := searchRangeKVCounted(recs, k, lo, hi)
	r.RecordSearch(probes+binProbes, hi-lo)
	return idx
}
