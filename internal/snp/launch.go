package snp

// LaunchLoad is the firmware launch path: the AMD secure processor places
// measured boot-image bytes into guest memory and marks the pages assigned
// and validated, *without* the runtime accept-scrub (the image content is
// exactly what gets measured). phys must be page aligned. Only the
// hypervisor's launch sequence uses this, before the guest runs.
func (m *Machine) LaunchLoad(phys uint64, data []byte) error {
	if PageOffset(phys) != 0 {
		return &Fault{Kind: FaultGP, Phys: phys, Why: "launch load must be page aligned"}
	}
	pages := (uint64(len(data)) + PageSize - 1) / PageSize
	for p := uint64(0); p < pages; p++ {
		pi, err := m.pageIndex(phys + p*PageSize)
		if err != nil {
			return err
		}
		e := &m.rmp[pi]
		if e.Assigned || e.VMSA {
			return &Fault{Kind: FaultGP, Phys: phys + p*PageSize, Why: "launch load over in-use page"}
		}
		*e = RMPEntry{Assigned: true, Validated: true, Perms: [NumVMPLs]Perm{VMPL0: PermAll}}
		m.validatedCount++
		lo := p * PageSize
		hi := lo + PageSize
		if hi > uint64(len(data)) {
			hi = uint64(len(data))
		}
		copy(m.rawPage(pi), data[lo:hi])
		m.markWritten(pi)
	}
	return nil
}
