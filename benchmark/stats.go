package main

import (
	"math"
	"sort"
	"time"
)

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v (nearest rank); v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func geomean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// slices splits a measurement window into equal time slices, so that one
// stall moves one slice and not the result. Each worker fills its own slices
// value; merge combines them afterwards.
type slices struct {
	start time.Time
	width time.Duration
	ops   []int64
	// progNS is the time the program had for a slice's operations and refNS
	// the time the reference implementation took for the same operations,
	// both summed over the workers.
	progNS, refNS []int64
	workers       int         // values merged into this one
	lat           [][]float64 // microseconds
}

// newSlices covers window with slices of sliceWidth, or four when the window
// is shorter than four of them.
func newSlices(start time.Time, window time.Duration) *slices {
	n := int(window / sliceWidth)
	if n < 4 {
		n = 4
	}
	s := &slices{start: start, width: window / time.Duration(n), ops: make([]int64, n)}
	return s.fresh()
}

func (s *slices) end() time.Time { return s.start.Add(s.width * time.Duration(len(s.ops))) }

// index returns the slice holding t, or -1 past the window.
func (s *slices) index(t time.Time) int {
	i := int(t.Sub(s.start) / s.width)
	if i < 0 || i >= len(s.ops) {
		return -1
	}
	return i
}

func (s *slices) addOps(t time.Time, n int) {
	if i := s.index(t); i >= 0 {
		s.ops[i] += int64(n)
	}
}

// addTimes records, for operations that ended at t, the time the program had
// for them and the time the reference took for them.
func (s *slices) addTimes(t time.Time, prog, ref time.Duration) {
	if i := s.index(t); i >= 0 {
		s.progNS[i] += prog.Nanoseconds()
		s.refNS[i] += ref.Nanoseconds()
	}
}

func (s *slices) addLat(t time.Time, d time.Duration) {
	if i := s.index(t); i >= 0 {
		s.lat[i] = append(s.lat[i], float64(d.Nanoseconds())/1e3)
	}
}

// fresh returns an empty slices value over the same window.
func (s *slices) fresh() *slices {
	n := len(s.ops)
	return &slices{start: s.start, width: s.width, ops: make([]int64, n), progNS: make([]int64, n), refNS: make([]int64, n), lat: make([][]float64, n)}
}

func (s *slices) merge(o *slices) {
	s.workers++
	for i := range s.ops {
		s.ops[i] += o.ops[i]
		s.progNS[i] += o.progNS[i]
		s.refNS[i] += o.refNS[i]
		s.lat[i] = append(s.lat[i], o.lat[i]...)
	}
}

func (s *slices) totalOps() int64 {
	var n int64
	for _, c := range s.ops {
		n += c
	}
	return n
}

// opsPerSec is the median over the slices of the operations per second of
// the program's own time, or of the clock where that time was not recorded.
func (s *slices) opsPerSec() float64 {
	v := make([]float64, len(s.ops))
	for i, n := range s.ops {
		if v[i] = float64(n) / s.width.Seconds(); s.progNS[i] > 0 {
			v[i] = float64(n) * float64(max(s.workers, 1)) / (float64(s.progNS[i]) / 1e9)
		}
	}
	return median(v)
}

// speedVsRef is the median over the slices of how many times faster than the
// reference the program ran the slice's operations.
func (s *slices) speedVsRef() float64 {
	var v []float64
	for i, prog := range s.progNS {
		if prog > 0 {
			v = append(v, float64(s.refNS[i])/float64(prog))
		}
	}
	return median(v)
}

// latQuantile is the median over slices of each slice's q-quantile, with the
// number of latency samples behind it.
func (s *slices) latQuantile(q float64) (us float64, samples int) {
	var v []float64
	for _, l := range s.lat {
		samples += len(l)
		if len(l) > 0 {
			v = append(v, quantile(l, q))
		}
	}
	return median(v), samples
}
