package main

// worker runs one operation stream and checks every answer without a shared
// oracle: values are mix(key), so any hit can be checked by anyone; base slots
// are always present; and each churn slot is written by one worker only, which
// keeps its presence bit and so knows the exact hit/miss outcome.
type worker struct {
	ks     *keyspace
	id     int
	solo   bool // no other worker writes: every slot's presence is known
	stream []op
	pos    int

	present bitset // exact for known() slots
	ops     int64  // answers checked
	wrong   int64  // answers that were wrong
	scanned int64  // records returned by scans
}

func newWorker(ks *keyspace, id int, stream []op, solo bool) *worker {
	return &worker{ks: ks, id: id, solo: solo, stream: stream, present: ks.init.clone()}
}

// take returns the next n operations, wrapping at the end of the stream.
func (w *worker) take(n int) []op {
	if w.pos+n > len(w.stream) {
		w.pos = 0
	}
	out := w.stream[w.pos : w.pos+n]
	w.pos += n
	return out
}

func (w *worker) known(slot uint32) bool {
	return !isChurn(slot) || w.solo || owner(slot) == w.id
}

func (w *worker) bad() { w.ops++; w.wrong++ }

func (w *worker) checkGet(o op, v uint64, ok bool) {
	w.ops++
	if (ok && v != mix(o.key)) || (w.known(o.slot) && ok != w.present.get(o.slot)) {
		w.wrong++
	}
}

func (w *worker) checkSet(o op) {
	w.ops++
	w.present.set(o.slot)
}

func (w *worker) checkDel(o op, ok bool) {
	w.ops++
	if ok != w.present.get(o.slot) {
		w.wrong++
	}
	w.present.clear(o.slot)
}

// scanCheck verifies a scan that starts at a slot's key: records ascend along
// the universe, carry mix(key), skip no slot known to be present and include
// none known to be absent.
type scanCheck struct {
	w    *worker
	slot uint32
	n    int
	bad  bool
}

func (w *worker) beginScan(o op) scanCheck { return scanCheck{w: w, slot: o.slot} }

// visit checks one record and reports whether the scan wants more.
func (s *scanCheck) visit(k, v uint64) bool {
	keys := s.w.ks.keys
	for int(s.slot) < len(keys) && keys[s.slot] != k {
		if s.w.known(s.slot) && s.w.present.get(s.slot) {
			s.bad = true
		}
		s.slot++
	}
	if int(s.slot) == len(keys) {
		s.bad = true
		return false
	}
	if v != mix(k) || (s.w.known(s.slot) && !s.w.present.get(s.slot)) {
		s.bad = true
	}
	s.slot++
	s.n++
	return s.n < scanLimit
}

// end closes the check: a short scan must have reached the end of the keys.
func (s *scanCheck) end() {
	keys := s.w.ks.keys
	if s.n < scanLimit {
		for ; int(s.slot) < len(keys); s.slot++ {
			if s.w.known(s.slot) && s.w.present.get(s.slot) {
				s.bad = true
			}
		}
	}
	s.w.ops++
	s.w.scanned += int64(s.n)
	if s.bad || s.n > scanLimit {
		s.w.wrong++
	}
}

// refApply is the reference implementation of one operation: a binary search
// over the sorted key universe and a look at the presence bit, a scan walking
// the slots that follow. The workloads run it on the same operations, in the
// same milliseconds and on the same core as the program, and report the
// program's speed as a multiple of its speed (see speed_vs_ref in README.md).
func (w *worker) refApply(o op) {
	keys := w.ks.keys
	lo, hi := 0, len(keys)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); keys[mid] < o.key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := w.present.get(uint32(lo))
	if o.code == opScan {
		for n, s := 0, lo; s < len(keys) && n < scanLimit; s++ {
			if w.present.get(uint32(s)) {
				n++
			}
		}
	}
	// The slot is known beforehand; using the search's answer keeps it from
	// being optimised away and checks the reference itself.
	if uint32(lo) != o.slot || (!found && !isChurn(o.slot)) {
		w.wrong++
	}
}
