package kernel

import (
	"fmt"

	"veil/internal/snp"
)

// CyclesAuditRecord is the cost of formatting one kaudit record and
// appending it to the in-kernel buffer (~4.7 μs — kaudit's record
// construction is notoriously slow). Calibrated so native Kaudit lands in
// the paper's 0.3–8.7% band at the Fig. 6 log rates (1.5k–61k/s).
const CyclesAuditRecord = 9000

// Audit is the kernel's auditing framework (Linux kaudit in the paper,
// §6.3). As in the paper's evaluation setup, records are kept in memory
// (the Auditd user-space writer is notoriously slow and was bypassed for
// the comparison). Under Veil, the hook installed at the equivalent of
// audit_log_end sends each finalized record to VeilS-Log *before* the
// audited event executes.
type Audit struct {
	k       *Kernel
	enabled bool
	rules   map[SysNo]bool
	buf     [][]byte
	records uint64
}

// NewAudit creates a disabled audit subsystem.
func NewAudit(k *Kernel) *Audit {
	return &Audit{k: k, rules: make(map[SysNo]bool)}
}

// DefaultRuleset is the syscall ruleset of the paper's CS3 configuration
// (the auditctl rules used by prior forensics work: file creation, network
// access, and process execution calls).
func DefaultRuleset() []SysNo {
	return []SysNo{
		SysRead, SysReadv, SysWrite, SysWritev, SysSendto, SysRecvfrom,
		SysSendmsg, SysRecvmsg, SysMmap, SysMprotect, SysLink, SysSymlink,
		SysClone, SysFork, SysVfork, SysExecve, SysOpen, SysClose, SysCreat,
		SysOpenat, SysMknodat, SysMknod, SysDup, SysDup2, SysDup3, SysBind,
		SysAccept, SysAccept4, SysConnect, SysRename, SysSetuid, SysSetreuid,
		SysSetresuid, SysChmod, SysFchmod, SysPipe, SysPipe2, SysTruncate,
		SysFtruncate, SysSendfile, SysUnlink, SysUnlinkat, SysSocketpair,
		SysSplice,
	}
}

// SetRules replaces the ruleset and enables auditing.
func (a *Audit) SetRules(rules []SysNo) {
	a.rules = make(map[SysNo]bool, len(rules))
	for _, r := range rules {
		a.rules[r] = true
	}
	a.enabled = len(rules) > 0
}

// Matches reports whether syscall n is audited.
func (a *Audit) Matches(n SysNo) bool { return a.enabled && a.rules[n] }

// emitFor formats and stores one record. This is the audit_log_end hook
// point: under Veil the record goes to VeilS-Log through a domain switch
// and only then does the syscall proceed (execute-ahead, §6.3).
func (a *Audit) emitFor(p *Process, n SysNo, detail string) error {
	a.k.m.Clock().Charge(snp.CostCompute, CyclesAuditRecord)
	a.records++
	rec := fmt.Sprintf("audit(%d): pid=%d uid=%d syscall=%s %s",
		a.k.m.Clock().Cycles(), p.PID, p.UID, n.Name(), detail)
	a.k.m.ObserveAudit(a.k.cfg.VMPL, uint64(len(rec)))
	if h := a.k.cfg.Hooks; h != nil {
		return h.AuditEmit([]byte(rec))
	}
	a.buf = append(a.buf, []byte(rec))
	return nil
}

// Records returns the native in-kernel buffer (empty under Veil, where
// records live in VeilS-Log's protected store).
func (a *Audit) Records() [][]byte { return a.buf }

// Count returns how many records have been emitted since boot.
func (a *Audit) Count() uint64 { return a.records }

// TamperNative is the attack surface of native kaudit: a compromised
// kernel component can rewrite or drop buffered records at will. It exists
// to demonstrate, in tests, the exact weakness VeilS-Log closes.
func (a *Audit) TamperNative(drop int) {
	if drop >= len(a.buf) {
		a.buf = nil
		return
	}
	a.buf = a.buf[:len(a.buf)-drop]
}
