//go:build !linux

package main

import (
	"syscall"
	"time"
)

// processCPU is the process's cumulative user+system CPU time.
func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU stands in for the calling thread's CPU time where the
// platform has no per-thread clock: the pacing spin is then charged at
// its wall time.
func threadCPU() time.Duration { return time.Duration(time.Now().UnixNano()) }
