package e2e

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter measures one timed region: wall clock, process CPU, and the
// allocation counters. It forces a GC before the region so every lap
// starts from the same heap, and the heap that survives that GC — the
// benchmark's own inputs — is the baseline retained heap is taken over.
type meter struct {
	start    time.Time
	cpu      time.Duration
	ms       runtime.MemStats
	baseHeap uint64
}

// cost is what a timed region used.
type cost struct {
	Wall, CPU      time.Duration
	Mallocs, Bytes uint64
}

// settle collects twice: a sync.Pool's contents (the window package
// pools its snapshot buffers) survive one collection in the victim cache
// and would otherwise count as live in one reading and not the next.
func settle() {
	runtime.GC()
	runtime.GC()
}

// baseline records the live heap before the lap's pipeline is built.
func (m *meter) baseline() {
	settle()
	runtime.ReadMemStats(&m.ms)
	m.baseHeap = m.ms.HeapAlloc
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.start = time.Now()
}

func (m *meter) end() cost {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cost{Wall: wall, CPU: cpu, Mallocs: ms.Mallocs - m.ms.Mallocs, Bytes: ms.TotalAlloc - m.ms.TotalAlloc}
}

// retainedMB is the heap still live after a forced GC, over the baseline.
// Call it while the lap's pipeline is still reachable.
func (m *meter) retainedMB() float64 {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc < m.baseHeap {
		return 0
	}
	return float64(ms.HeapAlloc-m.baseHeap) / (1 << 20)
}
