//go:build linux

package bench

import (
	"syscall"
	"unsafe"
)

// CLOCK_THREAD_CPUTIME_ID, nanosecond resolution.
const clockThreadCPUTimeID = 3

func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return wallSeconds()
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// threadSeconds returns the calling OS thread's accumulated CPU seconds.
// Callers must hold runtime.LockOSThread so both samples of a window read
// the same thread. The obs overhead percentages are ratios of ~tens of
// milliseconds, and on a co-tenant CI host wall clock charges the measured
// side for its neighbours' load; CPU time does not, which is what makes the
// regression gate on those percentages meaningful. Unlike process CPU time
// it also excludes the runtime's background GC workers, whose cycles would
// otherwise land on whichever measured side tripped a collection.
func threadSeconds() float64 { return cpuClock(clockThreadCPUTimeID) }
