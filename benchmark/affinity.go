package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// A wire workload keeps two threads busy, the client's and the server's
// connection handler, on a box with two cores. Left to the kernel they share a
// core for a slice now and then (the Go runtime has other threads to place),
// which cost a quarter of the throughput and changed from run to run. The
// client process therefore runs on the first CPU it is allowed and the server
// process on the last, as an operator would set them with taskset.

// cpuSet is a sched_setaffinity mask.
type cpuSet [16]uint64

func oneCPU(cpu int) cpuSet {
	var s cpuSet
	s[cpu/64] = 1 << (cpu % 64)
	return s
}

// allowedCPUs returns the calling thread's affinity mask and the CPUs in it.
func allowedCPUs() (cpuSet, []int) {
	var s cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 {
		return s, nil
	}
	var cpus []int
	for i := 0; i < 64*len(s); i++ {
		if s[i/64]>>(i%64)&1 != 0 {
			cpus = append(cpus, i)
		}
	}
	return s, cpus
}

// setAffinity moves every thread of this process onto the CPUs of s. Threads
// started later inherit the mask of the thread that starts them.
func setAffinity(s cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that has exited since the listing is no error.
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 && errno != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
		}
	}
	return nil
}
