package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. Left to the scheduler, the generator's and the
// server's threads wander over the machine's CPUs, and whether a
// request's next hop wakes a thread on the same CPU or another one is
// luck that changes the median latency of a whole run by a tenth. The
// benchmark removes the luck: the generator runs on the first CPU it is
// allowed to use and every server process on the second, so each hop of
// a request crosses between the same two CPUs every time. With a single
// allowed CPU everything shares it and nothing is pinned.

// cpuMask is a sched_setaffinity mask.
type cpuMask [16]uint64

func maskOf(cpu int) *cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return &m
}

// setAffinity pins one thread (0 means the caller's).
func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// placement says which CPU the generator and the servers run on.
type placement struct {
	generatorCPU, serverCPU int
	pinned                  bool
	allowed                 cpuMask // the mask the process started with
}

// place picks the two CPUs.
func place() (placement, error) {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return placement{}, errno
	}
	var cpus []int
	for cpu := 0; cpu < len(allowed)*64 && len(cpus) < 2; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) < 2 {
		return placement{}, nil
	}
	return placement{generatorCPU: cpus[0], serverCPU: cpus[1], pinned: true, allowed: allowed}, nil
}

// pin puts every thread of this process on the generator's CPU.
func (pl placement) pin() error {
	if !pl.pinned {
		return nil
	}
	return pinAllThreads(maskOf(pl.generatorCPU))
}

// unpin gives the process back every CPU it started with.
func (pl placement) unpin() error {
	if !pl.pinned {
		return nil
	}
	return pinAllThreads(&pl.allowed)
}

// pinAllThreads sets the affinity of every thread of this process. New
// threads inherit the mask from their creator.
func pinAllThreads(m *cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("pin thread %d: %w", tid, err)
		}
	}
	return nil
}

// startOn starts cmd so that the child runs on the given CPU: a child
// inherits the affinity of the thread that forks it.
func (pl placement) startOn(cpu int, cmd *exec.Cmd) error {
	if !pl.pinned {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, maskOf(cpu)); err != nil {
		return err
	}
	defer setAffinity(0, maskOf(pl.generatorCPU)) //nolint:errcheck // it was just set once
	return cmd.Start()
}
