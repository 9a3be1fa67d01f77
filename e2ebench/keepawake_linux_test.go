package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for e2ebench when
// startKeepAwake re-executes it as a spinning child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == keepAwakeArg {
		if err := keepAwakeChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// statFields returns the fields of a /proc stat line from the third
// (state) on: the second, the command, may hold spaces.
func statFields(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil // gone since the glob
	}
	_, rest, _ := strings.Cut(string(data), ") ")
	return strings.Fields(rest)
}

// idleChildren lists the live child processes of this one that have a
// thread in SCHED_IDLE, and counts all live children.
func idleChildren(t *testing.T) (idle []int, all int) {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range procs {
		f := statFields(filepath.Join(dir, "stat"))
		// Field 3 is the state, 4 the parent.
		if len(f) < 2 || f[0] == "Z" || f[1] != strconv.Itoa(os.Getpid()) {
			continue
		}
		all++
		tasks, _ := filepath.Glob(filepath.Join(dir, "task", "*", "stat"))
		for _, task := range tasks {
			// Field 41 is the scheduling policy.
			if tf := statFields(task); len(tf) > 38 && tf[38] == strconv.Itoa(schedIdle) {
				pid, _ := strconv.Atoi(filepath.Base(dir))
				idle = append(idle, pid)
				break
			}
		}
	}
	return idle, all
}

// TestKeepAwakeChildrenStop starts the spinning children and expects one
// per CPU, each with its spinning thread in SCHED_IDLE, and none left once
// stop has returned.
func TestKeepAwakeChildrenStop(t *testing.T) {
	_, before := idleChildren(t)
	stop, err := startKeepAwake()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// A child sets its policy right after start-up, so poll briefly.
	var idle []int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if idle, _ = idleChildren(t); len(idle) == runtime.NumCPU() {
			break
		}
	}
	if len(idle) != runtime.NumCPU() {
		t.Fatalf("SCHED_IDLE children %v, want one per CPU (%d)", idle, runtime.NumCPU())
	}
	stop()
	if _, after := idleChildren(t); after != before {
		t.Errorf("%d children before, %d after stop", before, after)
	}
}
