//go:build unix

package shard

import (
	"math"
	"syscall"
	"testing"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
)

func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestLockWaitersSleepBehindALongRead: rangeScan runs its callback under
// the read side, and a caller may take as long as it likes there. A
// writer waiting behind a callback that sleeps 200 ms, and a reader
// waiting behind that writer, must have used their polling budgets and
// gone to sleep: the process burns under half a core over the wait.
func TestLockWaitersSleepBehindALongRead(t *testing.T) {
	const hold = 200 * time.Millisecond
	m := obs.NewMetrics("lock-test")
	s, err := New(sortedRecs(100, 5), Config{Shards: 1}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetObserver(m)

	inside := make(chan struct{})
	scanned := make(chan time.Time)
	go func() {
		s.Range(0, math.MaxUint64, func(core.Key, core.Value) bool {
			close(inside)
			time.Sleep(hold)
			return false
		})
		scanned <- time.Now()
	}()
	<-inside
	cpu0, t0 := cpuTime(t), time.Now()
	wrote, read := make(chan time.Time), make(chan time.Time)
	go func() {
		s.Insert(1, 1)
		wrote <- time.Now()
	}()
	// The reader must find the writer pending, or it just walks in.
	for m.LockContended[1].Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		s.Get(1)
		read <- time.Now()
	}()
	scanEnd, writeEnd, readEnd := <-scanned, <-wrote, <-read
	cpu, wall := cpuTime(t)-cpu0, time.Since(t0)

	if writeEnd.Before(scanEnd) || readEnd.Before(scanEnd) {
		t.Errorf("write done %v and read done %v before the scan let go (%v after the wait began)",
			writeEnd.Sub(t0), readEnd.Sub(t0), scanEnd.Sub(t0))
	}
	if cpu > wall/2 {
		t.Errorf("%v of CPU over a wait of %v: the waiters polled instead of sleeping", cpu, wall)
	}
	w := lockWaits(m)
	if w["shard_lock_blocked_write"] != 1 || w["shard_lock_blocked_read"] != 1 ||
		w["shard_lock_contended_write"] != 1 || w["shard_lock_contended_read"] != 1 {
		t.Errorf("lock waits %v, want one contended and one blocked acquire per side", w)
	}
	t.Logf("wait %v, CPU %v, %v", wall, cpu, w)
}
