package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1,024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int) { m[cpu/64] |= 1 << (cpu % 64) }

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// setAffinity binds thread tid (0: the calling thread) to the mask.
func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuPlan places a cluster run on the machine: every node process on one
// CPU, the driver on another. The load generator must not take CPU from
// the system it loads, and a hop between two nodes should cost what the
// node code costs, not a wake-up across virtual CPUs, which on a shared
// host is the hypervisor's and drifted by 30% within minutes while this
// benchmark was sized (README, "CPU placement"). With fewer than two
// CPUs allowed, nothing is pinned.
type cpuPlan struct {
	all, nodes, driver cpuMask
	nodeCPU, driverCPU int
	ok                 bool
}

func planCPUs() cpuPlan {
	var p cpuPlan
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(p.all), uintptr(unsafe.Pointer(&p.all)))
	cpus := p.all.cpus()
	if errno != 0 || len(cpus) < 2 {
		return p
	}
	p.nodeCPU, p.driverCPU, p.ok = cpus[0], cpus[1], true
	p.nodes.set(p.nodeCPU)
	p.driver.set(p.driverCPU)
	return p
}

func (p cpuPlan) String() string {
	if !p.ok {
		return "no CPU pinning (fewer than 2 CPUs allowed)"
	}
	return fmt.Sprintf("node processes pinned to CPU %d, driver to CPU %d during cluster runs and the layer replay", p.nodeCPU, p.driverCPU)
}

// bindProcess binds every thread of this process to the mask; threads
// made later inherit it from their makers.
func bindProcess(m *cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			_ = setAffinity(tid, m) // a thread that exited meanwhile is not an error
		}
	}
}

// pinDriver binds the driver to its CPU; the returned function undoes it.
func (p cpuPlan) pinDriver() (unpin func()) {
	if !p.ok {
		return func() {}
	}
	bindProcess(&p.driver)
	return func() { bindProcess(&p.all) }
}

// forNodes runs fn, which starts node processes, on a thread bound to
// the nodes' CPU: a child inherits the affinity of the thread that forks
// it. The thread goes back to the driver's CPU afterwards.
func (p cpuPlan) forNodes(fn func() error) error {
	if !p.ok {
		return fn()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.nodes); err != nil {
		return fmt.Errorf("pin node processes to CPU %d: %w", p.nodeCPU, err)
	}
	defer setAffinity(0, &p.driver)
	return fn()
}

// sleepUntil blocks until t. The open-loop generator cannot use
// time.Sleep: an idle Go program waits for its timers in epoll_wait,
// whose timeout is whole milliseconds, so a sleep overshoots by 0.6 ms
// at the median (measured here) — as much as the operations being paced
// take. nanosleep(2) is served by a high-resolution timer.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) only makes the send early-checked again by the caller's clock
	}
}
