package kernel

import "fmt"

// Runnable-process-to-VCPU placement: the kernel-side half of SMP
// scheduling. The simulator's sched package decides *when* each VCPU runs;
// this decides *where* a runnable process lives. Placement is deterministic
// — least-loaded VCPU, lowest id on ties — so identically-seeded SMP runs
// assign identical processes to identical VCPUs.

// PlaceProcess assigns a process to a VCPU and returns the choice. Placing
// an already-placed process migrates it (its old VCPU's load drops first).
func (k *Kernel) PlaceProcess(pid int) (int, error) {
	if _, ok := k.procs[pid]; !ok {
		return 0, fmt.Errorf("kernel: place: no process %d", pid)
	}
	if k.placeLoad == nil {
		k.placeLoad = make([]int, k.cfg.VCPUs)
		k.placement = make(map[int]int)
	}
	if old, ok := k.placement[pid]; ok {
		k.placeLoad[old]--
	}
	best := 0
	for v := 1; v < len(k.placeLoad); v++ {
		if k.placeLoad[v] < k.placeLoad[best] {
			best = v
		}
	}
	k.placeLoad[best]++
	k.placement[pid] = best
	return best, nil
}
