//go:build !linux

package bench

// threadSeconds falls back to wall clock where per-thread CPU time is not
// wired up; the overhead percentages are then best-effort (see
// cputime_linux.go for the real implementation and the locking contract).
func threadSeconds() float64 { return wallSeconds() }
