package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Keeping the virtual CPUs awake. fleet_paced serves a 3 ms burst every
// 20 ms and idles in between, and the closed loops block on a socket, a
// queue or a drain many times a segment. An idle virtual CPU halts, the
// host runs another guest on the core, and the next piece of work starts
// with the host's wake-up delay (counted as steal) and that guest's data
// in the caches. On the shared reference box that made the latency, the
// rate and the CPU cost of a unit of work follow the host's load:
// fleet_paced read 1.5-2.4 ms and 0.72-0.94 us across five runs, against
// 1.35-1.85 ms and 0.59-0.68 us with the CPUs kept awake, and
// cascade_replay 9.4-12.3 k windows/s against 12.0-12.6 k. So for the
// length of a run one child process per CPU spins at SCHED_IDLE priority,
// the kernel's "only when nothing else wants the CPU" class: any thread
// of the benchmark preempts it at once, it takes no time from the system
// under test, and being another process it is not in the CPU the
// benchmark charges to the work. It is the harness's stand-in for booting
// the box with idle=poll.

// keepAwakeArg as the first argument turns the program into one spinning
// child: e2ebench -keep-awake <k> <parent pid>.
const keepAwakeArg = "-keep-awake"

// startKeepAwake starts one spinning child per usable CPU. stop kills
// them and waits until each has ended.
func startKeepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var kids []*exec.Cmd
	stop = func() {
		for _, k := range kids {
			k.Process.Kill()
			k.Wait()
		}
		kids = nil
	}
	for k := 0; k < runtime.NumCPU(); k++ {
		cmd := exec.Command(exe, keepAwakeArg, strconv.Itoa(k), strconv.Itoa(os.Getpid()))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("keep-awake child %d: %w", k, err)
		}
		kids = append(kids, cmd)
	}
	return stop, nil
}

const schedIdle = 5 // SCHED_IDLE

// keepAwakeChild pins itself to the k-th CPU it may run on, drops to
// SCHED_IDLE and spins until it is killed or its parent has gone.
func keepAwakeChild(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -keep-awake K PARENT-PID")
	}
	k, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	parent, err := strconv.Atoi(args[1])
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var one [16]uint64
	for w, word := range mask {
		if n := bits.OnesCount64(word); k >= n {
			k -= n
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		one[w] = word & -word
		break
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	var prio int32 // struct sched_param: SCHED_IDLE takes priority 0
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		return fmt.Errorf("sched_setscheduler: %w", errno)
	}
	for os.Getppid() == parent {
		for i := 0; i < 1<<20; i++ {
			spinSink++
		}
	}
	return nil
}

// spinSink keeps the compiler from deleting the spin loop.
var spinSink uint64
