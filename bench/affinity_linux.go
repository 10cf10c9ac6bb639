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

// The benchmark is Linux-only: it reads /proc and pins with
// sched_setaffinity. The driver and the daemon are pinned to disjoint CPUs: left to the
// scheduler, the two ping-pong across cores and the same commit's CPU time
// per op and closed-loop rate swing by tens of percent between runs.

// cpuMask is a sched_setaffinity bit mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity(%d): %w", tid, errno)
	}
	return m, nil
}

// pinning splits the CPUs this process may use: the first for the driver,
// the rest for the daemon.
type pinning struct {
	driver, daemon cpuMask
	active         bool
}

// pinDriver pins every thread of this process to the first allowed CPU and
// reserves the others for daemons. With a single allowed CPU nothing is
// pinned. Threads started later inherit the mask from their creator.
func pinDriver() (*pinning, error) {
	allowed, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	p := &pinning{}
	first := true
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if !allowed.has(cpu) {
			continue
		}
		if first {
			p.driver.set(cpu)
			first = false
		} else {
			p.daemon.set(cpu)
			p.active = true
		}
	}
	if !p.active {
		return p, nil
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call; the ones that
		// matter are long-lived.
		_ = setAffinity(tid, &p.driver)
	}
	return p, nil
}

// on reports whether the driver and its daemons are pinned apart.
func (p *pinning) on() bool { return p != nil && p.active }

// start runs cmd.Start with the calling thread on the daemon's CPUs, which
// the child inherits, and then returns the thread to the driver's CPU.
func (p *pinning) start(cmd *exec.Cmd) error {
	if !p.on() {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.daemon); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, &p.driver); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
