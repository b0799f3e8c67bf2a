package kernel

import "veil/internal/snp"

// Per-syscall base work, in cycles, excluding the fixed entry/exit cost
// (snp.CyclesSyscall) and data-size-dependent copy charges. The values are
// μs-scale costs typical of CVM guests (SEV-SNP syscalls are slower than
// bare metal), calibrated so that the Fig. 4 native baselines put the
// enclave-redirected versions in the paper's 3.3–7.1× band: one redirected
// call adds two hypervisor-relayed domain switches (2 × 14270 cycles) plus
// deep-copy marshalling, so native costs of roughly 4–9k cycles yield
// exactly that ratio range. The table is indexed by syscall number; a
// number without an entry (0) costs defaultBaseCost.
var sysBaseCost = [numSysNo]uint64{
	SysOpen: 6500, SysOpenat: 6500, SysCreat: 6500,
	SysRead: 6500, SysWrite: 6500, SysPread: 6500, SysPwrite: 6500,
	SysClose: 3000,
	SysStat:  4000, SysFstat: 3200,
	SysLseek: 1200,
	SysMmap:  3500, SysMunmap: 2500, SysMprotect: 3000,
	SysSocket: 3000, SysBind: 3500, SysListen: 3500,
	SysConnect: 3500, SysAccept: 3500,
	SysSendto: 5500, SysRecvfrom: 5500,
	SysRename: 4500, SysUnlink: 4500, SysUnlinkat: 4500,
	SysMkdir: 4500, SysRmdir: 4500, SysLink: 4500, SysSymlink: 4500,
	SysChmod: 3500, SysFchmod: 3000, SysMknod: 4500,
	SysTruncate: 4000, SysFtruncate: 3500,
	SysDup: 1000, SysDup2: 1000, SysDup3: 1000,
	SysPipe2: 3000, SysSendfile: 6500, SysSplice: 6000,
	SysGetdents: 4000, SysIoctl: 3000,
	SysFork: 15000, SysExecve: 30000, SysExit: 5000,
	SysGetpid: 150, SysGetuid: 150, SysSetuid: 800,
	SysGettime: 400,
}

// defaultBaseCost is the base work of a syscall sysBaseCost does not list.
const defaultBaseCost = 2000

// chargeBase accounts the syscall's base work.
func (k *Kernel) chargeBase(n SysNo) {
	c := uint64(defaultBaseCost)
	if n >= 0 && n < numSysNo && sysBaseCost[n] != 0 {
		c = sysBaseCost[n]
	}
	k.m.Clock().Charge(snp.CostCompute, c)
}

// Burn charges raw application compute on the virtual clock: workloads use
// it to model the CPU work their real counterparts perform between
// syscalls.
func (k *Kernel) Burn(cycles uint64) {
	k.m.Clock().Charge(snp.CostCompute, cycles)
}
