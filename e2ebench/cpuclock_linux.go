package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The CPU clocks. getrusage only sees a running thread's time up to the
// last scheduler tick, 1-10 ms ago, which is a tenth of what a
// half-second segment of fleet_paced spends; clock_gettime brings the
// running threads' accounting up to date first.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) (time.Duration, bool) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}

// processCPU is the process's cumulative user+system CPU time.
func processCPU() time.Duration {
	if d, ok := cpuClock(clockProcessCPU); ok {
		return d
	}
	return rusageCPU(syscall.RUSAGE_SELF)
}

// threadCPU is the calling OS thread's cumulative user+system CPU time;
// the caller has locked its goroutine to the thread.
func threadCPU() time.Duration {
	if d, ok := cpuClock(clockThreadCPU); ok {
		return d
	}
	const rusageThread = 1 // RUSAGE_THREAD
	return rusageCPU(rusageThread)
}
