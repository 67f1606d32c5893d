package shard

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

// newTestLock returns a lock that counts its slow acquires into m the
// way a shard's does, or nowhere when m is nil.
func newTestLock(m *obs.Metrics) *rwLock {
	if m == nil {
		m = obs.NewMetrics("unread")
	}
	l := new(rwLock)
	l.init(m.RecordLockWait)
	return l
}

// TestLockLayout pins what lock.go and rw.go say about cache lines: every
// reader count on a line of its own, and the lock's other words with the
// shard's index in one line-aligned object of one line.
func TestLockLayout(t *testing.T) {
	if got := unsafe.Sizeof(readerStripe{}); got != 64 {
		t.Errorf("readerStripe is %d bytes, want one 64-byte line", got)
	}
	if got := unsafe.Sizeof(rwShard{}); got > 64 {
		t.Errorf("rwShard is %d bytes, want at most one 64-byte line", got)
	}
	s, err := New(sortedRecs(1000, 3), Config{Shards: 8}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	for i, rw := range s.shards {
		if a := uintptr(unsafe.Pointer(rw)); a%64 != 0 {
			t.Errorf("shard %d allocated at %#x, not on a cache line", i, a)
		}
		if a := uintptr(unsafe.Pointer(rw.mu.stripes)); a%64 != 0 {
			t.Errorf("shard %d: stripes allocated at %#x, not on a cache line", i, a)
		}
	}
}

// TestLockUncontendedCountsNothing: the counters are fed from the slow
// paths only.
func TestLockUncontendedCountsNothing(t *testing.T) {
	m := obs.NewMetrics("lock-test")
	l := newTestLock(m)
	for i := 0; i < 1000; i++ {
		s := l.rlock()
		s2 := l.rlock() // a second reader is not contention
		l.runlock(s2)
		l.runlock(s)
		l.lock()
		l.unlock()
	}
	for name, n := range lockWaits(m) {
		if n != 0 {
			t.Errorf("%s = %d after uncontended acquires, want 0", name, n)
		}
	}
}

// TestLockExcludes: a writer never overlaps a writer or a reader. a and b
// are plain words written only under the write side and always left
// equal; any overlap shows as a != b under the read side, as a lost
// increment at the end, or as a report of the race detector.
func TestLockExcludes(t *testing.T) {
	l := newTestLock(nil)
	var a, b int
	const writers, readers, perWriter = 4, 4, 5000
	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.lock()
				a++
				if i%64 == 0 {
					runtime.Gosched() // hold it across a reschedule now and then
				}
				b++
				l.unlock()
			}
		}()
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; !done.Load(); i++ {
				s := l.rlock()
				x := a
				if i%64 == 0 {
					runtime.Gosched()
				}
				y := b
				l.runlock(s)
				if x != y {
					t.Errorf("reader saw a=%d b=%d inside one read hold", x, y)
					return
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	rg.Wait()
	if a != writers*perWriter || b != a {
		t.Errorf("a=%d b=%d after %d increments each", a, b, writers*perWriter)
	}
}

// TestLockNoStarvation: a writer gets through a stream of readers and a
// reader through a stream of writers, 200 times inside a deadline that is
// generous for a hand-off and hopeless for waiting until the lock happens
// to be free.
func TestLockNoStarvation(t *testing.T) {
	const rounds = 200
	deadline := 20 * time.Second
	run := func(t *testing.T, stream func(l *rwLock, stop *atomic.Bool), starved func(l *rwLock)) {
		l := newTestLock(nil)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stream(l, &stop)
			}()
		}
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			for i := 0; i < rounds; i++ {
				starved(l)
			}
		}()
		select {
		case <-finished:
		case <-time.After(deadline):
			t.Errorf("%d acquires not done after %v", rounds, deadline)
		}
		stop.Store(true)
		wg.Wait()
		<-finished
	}
	t.Run("writer-under-readers", func(t *testing.T) {
		run(t, func(l *rwLock, stop *atomic.Bool) {
			// Four of these, each holding across a reschedule: a gap
			// with no reader inside is rare, and a writer that waited
			// for one instead of turning new readers away would wait
			// for 200 of them.
			for !stop.Load() {
				s := l.rlock()
				runtime.Gosched()
				l.runlock(s)
			}
		}, func(l *rwLock) {
			l.lock()
			l.unlock()
		})
	})
	t.Run("reader-under-writers", func(t *testing.T) {
		run(t, func(l *rwLock, stop *atomic.Bool) {
			for !stop.Load() {
				l.lock()
				l.unlock()
			}
		}, func(l *rwLock) {
			l.runlock(l.rlock())
		})
	})
}

// TestLockManyGoroutinesTwoProcs: 64 goroutines on two Ps and one shard
// each run a fixed mixed stream over keys of their own and finish; every
// read agrees with the goroutine's own sequential oracle on the way, and
// the shard with the merged oracles at the end. A lock that polled
// without yielding or sleeping would leave the holders no P to run on.
func TestLockManyGoroutinesTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const goroutines, keysEach = 64, 32
	ops := 4000
	if testing.Short() {
		ops = 1000
	}
	m := obs.NewMetrics("lock-test")
	s, err := New(nil, Config{Shards: 1}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetObserver(m)
	oracles := make([]map[core.Key]core.Value, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Key i of goroutine g is i*goroutines+g: the key sets
			// interleave, so a scan of one crosses all the others.
			key := func(i int) core.Key { return core.Key(i*goroutines + g) }
			own := map[core.Key]core.Value{}
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < ops; i++ {
				k := key(r.Intn(keysEach))
				switch c := r.Intn(100); {
				case c < 60:
					v, ok := s.Get(k)
					if want, has := own[k]; ok != has || (ok && v != want) {
						t.Errorf("goroutine %d: Get(%d) = (%d, %v), oracle (%d, %v)", g, k, v, ok, want, has)
						return
					}
				case c < 80:
					v := core.Value(r.Uint64())
					s.Insert(k, v)
					own[k] = v
				case c < 95:
					_, has := own[k]
					if ok := s.Delete(k); ok != has {
						t.Errorf("goroutine %d: Delete(%d) = %v, oracle %v", g, k, ok, has)
						return
					}
					delete(own, k)
				default:
					seen := 0
					s.Range(key(0), key(keysEach-1), func(k core.Key, v core.Value) bool {
						if int(k)%goroutines == g {
							if want, has := own[k]; !has || v != want {
								t.Errorf("goroutine %d: Range saw (%d, %d), oracle (%d, %v)", g, k, v, want, has)
							}
							seen++
						}
						return true
					})
					if seen != len(own) {
						t.Errorf("goroutine %d: Range saw %d of its keys, oracle holds %d", g, seen, len(own))
						return
					}
				}
			}
			oracles[g] = own
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := 0
	for _, own := range oracles {
		want += len(own)
		for k, v := range own {
			if got, ok := s.Get(k); !ok || got != v {
				t.Fatalf("after the run: Get(%d) = (%d, %v), oracle %d", k, got, ok, v)
			}
		}
	}
	if s.Len() != want {
		t.Fatalf("after the run: Len() = %d, oracles hold %d", s.Len(), want)
	}
	t.Logf("lock waits: %v", lockWaits(m))
}

// lockWaits reads the four lock counters of a bundle.
func lockWaits(m *obs.Metrics) map[string]uint64 {
	out := map[string]uint64{}
	for name, v := range m.Snapshot().Counters {
		if strings.HasPrefix(name, "shard_lock_") {
			out[name] = v
		}
	}
	return out
}
