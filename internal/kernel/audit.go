package kernel

import (
	"strconv"

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
	rules   [numSysNo]bool // indexed by syscall number
	buf     [][]byte
	records uint64
	// scratch is the one buffer every record is rendered into; it keeps
	// its grown capacity, so a steady stream of records allocates nothing.
	scratch []byte
}

// NewAudit creates a disabled audit subsystem.
func NewAudit(k *Kernel) *Audit {
	return &Audit{k: k}
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

// SetRules replaces the ruleset and enables auditing. A number past the
// implemented ones names no syscall the kernel can enter, so no rule for
// it could ever match; it is not stored.
func (a *Audit) SetRules(rules []SysNo) {
	a.rules = [numSysNo]bool{}
	for _, r := range rules {
		if r >= 0 && r < numSysNo {
			a.rules[r] = true
		}
	}
	a.enabled = len(rules) > 0
}

// Matches reports whether syscall n is audited.
func (a *Audit) Matches(n SysNo) bool {
	return a.enabled && n >= 0 && n < numSysNo && a.rules[n]
}

// emitFor renders and stores one record. This is the audit_log_end hook
// point: under Veil the record goes to VeilS-Log through a domain switch
// and only then does the syscall proceed (execute-ahead, §6.3). detail
// appends the syscall's fields after the header.
func (a *Audit) emitFor(p *Process, n SysNo, detail func(b []byte) []byte) error {
	a.k.m.Clock().Charge(snp.CostCompute, CyclesAuditRecord)
	a.records++
	rec := recBuf(a.scratch[:0]).udec("audit(", a.k.m.Clock().Cycles()).
		dec("): pid=", p.PID).dec(" uid=", p.UID).str(" syscall=", n.Name())
	rec = detail(append(rec, ' '))
	a.scratch = rec
	a.k.m.ObserveAudit(a.k.cfg.VMPL, uint64(len(rec)))
	if h := a.k.cfg.Hooks; h != nil {
		return h.AuditEmit(rec)
	}
	a.buf = append(a.buf, append([]byte(nil), rec...))
	return nil
}

// recBuf renders record fields by appending. Each method writes key and
// then the value exactly as the fmt verb in its comment would print it
// (FuzzAuditAppend holds them to fmt).
type recBuf []byte

// str appends key and s verbatim (%s).
func (r recBuf) str(key, s string) recBuf { return append(append(r, key...), s...) }

// quote appends key and s as a Go-quoted string (%q).
func (r recBuf) quote(key, s string) recBuf { return strconv.AppendQuote(append(r, key...), s) }

// dec appends key and v in decimal (%d).
func (r recBuf) dec(key string, v int) recBuf { return r.dec64(key, int64(v)) }

// dec64 appends key and v in decimal (%d).
func (r recBuf) dec64(key string, v int64) recBuf { return strconv.AppendInt(append(r, key...), v, 10) }

// udec appends key and v in decimal (%d).
func (r recBuf) udec(key string, v uint64) recBuf {
	return strconv.AppendUint(append(r, key...), v, 10)
}

// hex appends key and v as 0x-prefixed lowercase hex, -0x… when negative
// (%#x).
func (r recBuf) hex(key string, v int64) recBuf {
	if v < 0 {
		return strconv.AppendUint(append(append(r, key...), "-0x"...), -uint64(v), 16)
	}
	return r.uhex(key, uint64(v))
}

// uhex appends key and v as 0x-prefixed lowercase hex (%#x).
func (r recBuf) uhex(key string, v uint64) recBuf {
	return strconv.AppendUint(append(append(r, key...), "0x"...), v, 16)
}

// oct appends key and v in octal with a leading 0; zero is plain "0" (%#o).
func (r recBuf) oct(key string, v uint32) recBuf {
	r = append(r, key...)
	if v == 0 {
		return append(r, '0')
	}
	return strconv.AppendUint(append(r, '0'), uint64(v), 8)
}

// Records returns the native in-kernel buffer (empty under Veil, where
// records live in VeilS-Log's protected store).
func (a *Audit) Records() [][]byte { return a.buf }

// Count returns how many records have been emitted since boot.
func (a *Audit) Count() uint64 { return a.records }

// TamperNative is the attack surface of native kaudit: a compromised
// kernel component can rewrite or drop buffered records at will. It exists
// to demonstrate, in tests, the exact weakness VeilS-Log closes. It drops
// the last drop records; a count of zero or less drops nothing.
func (a *Audit) TamperNative(drop int) {
	if drop <= 0 {
		return
	}
	if drop >= len(a.buf) {
		a.buf = nil
		return
	}
	a.buf = a.buf[:len(a.buf)-drop]
}
