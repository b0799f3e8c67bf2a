package obs

import (
	"os"
	"runtime/pprof"
)

// StartCPUProfile begins writing a pprof CPU profile of the host process
// to path; the returned stop function flushes and closes it. The
// simulator's own flame graphs are in virtual cycles (WriteFlamegraph);
// this profiles the *host* CPU cost of running the simulation — the tool
// for hunting tracing overhead, GC churn, or a hot helper in the machine
// itself. veil-sim and veil-bench expose it as -cpuprofile.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
