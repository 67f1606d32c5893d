package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/lix-go/lix/internal/obs"
)

// rwLock is the reader-writer lock of a LockRW shard, built for holds of
// a few hundred nanoseconds. sync.RWMutex parks a writer on a semaphore
// whenever one reader is inside and a reader whenever a writer is pending,
// and never spins; where a futex wake and the scheduler hand-off cost
// tens of microseconds, two callers on four shards spent their second
// core on parking and waking (DESIGN §4 has the numbers).
//
// A reader adds 1 to one of obs.Stripes reader counts, each on its own
// cache line and picked by the caller's stack address the way obs.Counter
// picks its stripe, then loads the writer word: no line that another
// reader writes is touched. A writer takes wmu (writers exclude each
// other there), stores the writer word and waits for every stripe to
// drain. Go's atomics are sequentially consistent, so of a reader's
// add-then-load and a writer's store-then-load at least one sees the
// other (Dekker): a reader that sees the writer backs out, a writer that
// sees the reader waits for it.
//
// Every wait polls a bounded number of times, yields the processor every
// yieldEvery-th poll, and after blockAfter polls sleeps: a reader on wmu,
// which the writer holds until it is done, a writer on wake, which the
// reader that empties a stripe signals when the writer word says the
// writer is asleep. A Range callback may hold the read side for as long
// as its caller likes; whoever waits behind it costs no CPU.
//
// A pending writer turns new readers away, as sync.RWMutex does, so
// writers do not starve and a read hold must not be nested inside another
// on the same shard; readers under a stream of writers queue on wmu,
// whose hand-off is first come, first served once a waiter is a
// millisecond old.
type rwLock struct {
	// stripes is its own allocation: a pointer-free object of a
	// power-of-two size starts on a multiple of that size, which keeps
	// every count on its own line. The words below fit one line with
	// their shard's index (rwShard), all of it written by writers only.
	stripes *[obs.Stripes]readerStripe
	writer  atomic.Int32 // writerNone, writerIn or writerAsleep
	wmu     sync.Mutex
	wake    chan struct{} // capacity 1: a signal sent before the sleep is kept
	// waited is told of every acquire that left the fast path: once when
	// it first has to poll and once more if it goes to sleep.
	waited func(write, blocked bool)
}

type readerStripe struct {
	n atomic.Int32
	_ [60]byte
}

const (
	writerNone int32 = iota
	writerIn
	writerAsleep
)

// The budget of one acquire. At one poll in yieldEvery the waiter calls
// runtime.Gosched, which is what lets a holder run that shares the
// waiter's P (with GOMAXPROCS 1 it is the only way it can); after
// blockAfter polls it sleeps. A yield with the other P busy measured
// 130-280 ns on the 2-vCPU sandbox, so the 256 of them are 35-70 µs: a
// hundred point operations, and about what a park and the wake that ends
// it cost there, which is the most a waiter should spend on avoiding
// them. With blockAfter 512 the repo benchmark's two callers slept on
// 2 000-2 900 of 20 M acquires, with 4 096 on 200-400; its rate did not
// tell the two apart.
const (
	yieldEvery = 16
	blockAfter = 4096
)

func (l *rwLock) init(waited func(write, blocked bool)) {
	l.stripes = new([obs.Stripes]readerStripe)
	l.wake = make(chan struct{}, 1)
	l.waited = waited
}

// pause is called between two polls of one acquire, which counts them
// in *polls. False means the budget is used up and the caller must sleep;
// the first false of an acquire is what waited hears of as blocked.
func (l *rwLock) pause(polls *int, write bool) bool {
	*polls++
	if *polls <= blockAfter {
		if *polls%yieldEvery == 0 {
			runtime.Gosched()
		}
		return true
	}
	if *polls == blockAfter+1 {
		l.waited(write, true)
	}
	return false
}

// rlock acquires the read side and returns the stripe to hand to
// runlock: the stack may move between the two calls, and the address
// with it.
func (l *rwLock) rlock() *readerStripe {
	var probe byte
	s := &l.stripes[obs.StripeHint(uintptr(unsafe.Pointer(&probe)))]
	s.n.Add(1)
	if l.writer.Load() != writerNone {
		l.rlockSlow(s)
	}
	return s
}

func (l *rwLock) rlockSlow(s *readerStripe) {
	l.waited(false, false)
	var polls int
	for {
		l.runlock(s) // back out; the writer may have counted us
		for l.writer.Load() != writerNone {
			if l.pause(&polls, false) {
				continue
			}
			// Holding wmu, no writer is in and none can come: the
			// count needs no second look at the writer word.
			l.wmu.Lock()
			s.n.Add(1)
			l.wmu.Unlock()
			return
		}
		s.n.Add(1)
		if l.writer.Load() == writerNone {
			return
		}
	}
}

// runlock releases the read side. Only the reader that empties a stripe
// can be the one a sleeping writer waits for.
func (l *rwLock) runlock(s *readerStripe) {
	if s.n.Add(-1) == 0 && l.writer.Load() == writerAsleep {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// lock acquires the write side.
func (l *rwLock) lock() {
	locked := l.wmu.TryLock()
	if locked {
		l.writer.Store(writerIn)
		// Counts are never negative, so the OR is zero when all are:
		// eight independent loads and no branch between them.
		s := l.stripes
		if s[0].n.Load()|s[1].n.Load()|s[2].n.Load()|s[3].n.Load()|
			s[4].n.Load()|s[5].n.Load()|s[6].n.Load()|s[7].n.Load() == 0 {
			return
		}
	}
	l.lockSlow(locked)
}

// drained returns the first stripe from i on that still holds a reader,
// len(l.stripes) when there is none.
func (l *rwLock) drained(i int) int {
	for ; i < len(l.stripes); i++ {
		if l.stripes[i].n.Load() != 0 {
			break
		}
	}
	return i
}

// lockSlow finishes a write acquire that found another writer (locked
// false) or a reader (locked true: wmu held, writer word stored) in its
// way.
func (l *rwLock) lockSlow(locked bool) {
	l.waited(true, false)
	var polls int
	for !locked {
		if locked = l.wmu.TryLock(); !locked && !l.pause(&polls, true) {
			l.wmu.Lock()
			locked = true
		}
	}
	l.writer.Store(writerIn)
	for i := l.drained(0); i < len(l.stripes); i = l.drained(i) {
		if l.pause(&polls, true) {
			continue
		}
		// Say so, look once more, sleep: the reader that empties the
		// stripe either is seen here or sees the word and signals.
		// A signal left over from an earlier wait costs one more turn.
		l.writer.Store(writerAsleep)
		if l.stripes[i].n.Load() != 0 {
			<-l.wake
		}
		l.writer.Store(writerIn)
	}
}

// unlock releases the write side.
func (l *rwLock) unlock() {
	l.writer.Store(writerNone)
	l.wmu.Unlock()
}
