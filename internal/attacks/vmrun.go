package attacks

// VMRUN attacks: the host picks which VMSA page a VCPU enters, but the
// hardware decides what runs. It enters only a page whose RMP entry is a
// VMSA of that VCPU, and it runs the state that page holds. Each attack
// points a switch at a page the hardware must refuse: a destroyed
// enclave's, one that was never a VMSA, and another VCPU's.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/hv"
	"veil/internal/kernel"
	"veil/internal/sdk"
	"veil/internal/snp"
)

// svcProbe is a Dom-SRV service id no shipped service uses: the VMRUN
// attacks register a probe handler under it to see whose Dom-SRV replica,
// if any, served a request.
const svcProbe uint8 = 0xA5

// osSwitch is the OS on vcpu asking, through its kernel GHCB (which has no
// GHCB policy), for a domain switch to tag.
func osSwitch(c *cvm.CVM, vcpu int, tag uint64) error {
	ghcb := c.K.GHCBPhys(vcpu)
	if err := c.M.WriteGHCBMSR(vcpu, snp.CPL0, ghcb); err != nil {
		return err
	}
	g := &snp.GHCB{ExitCode: hv.ExitDomainSwitch, ExitInfo1: tag}
	return c.HV.GuestCall(vcpu, snp.VMPL3, snp.CPL0, ghcb, g)
}

// probeSrvSwitch registers the probe service, writes a request for it into
// every VCPU's Dom-SRV IDCB, and has the OS on VCPU 0 switch to Dom-SRV. It
// returns the VCPUs whose Dom-SRV replica served the probe and the switch's
// error.
func probeSrvSwitch(c *cvm.CVM) ([]int, error) {
	var served []int
	c.Mon.RegisterService(svcProbe, func(vcpu int, _ uint8, _ []byte) (uint32, []byte) {
		served = append(served, vcpu)
		return core.StatusOK, nil
	})
	req := core.Request{Svc: svcProbe}
	for v := 0; v < c.M.VCPUs(); v++ {
		if err := core.WriteIDCBRequest(c.M, snp.VMPL3, snp.CPL0, c.Lay.SrvIDCB(v), req); err != nil {
			return nil, err
		}
	}
	err := osSwitch(c, 0, core.DomSRV)
	return served, err
}

// refused is the verdict every VMRUN attack shares: the machine refused the
// entry with its typed error, nothing ran, and the CVM is still up.
func refused(c *cvm.CVM, err error, ran int) bool {
	return errors.Is(err, snp.ErrVMRUN) && ran == 0 && c.M.Halted() == nil
}

// vmrunAttacks are the Enclave suite's VMRUN rows.
func vmrunAttacks() []attack {
	return []attack{
		{
			name:    "Switch to a destroyed enclave (OS/hypervisor)",
			defence: "VMRUN refuses a page that is no longer a VMSA",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				runs := 0
				prog := sdk.ProgramFunc(func(sdk.Libc, []string) int { runs++; return 0 })
				p := c.K.Spawn("victim")
				app, err := sdk.LaunchEnclave(c, p, prog, sdk.EnclaveConfig{RegionPages: 8})
				if err != nil {
					return false, err.Error()
				}
				if _, err := app.Enter(); err != nil {
					return false, err.Error()
				}
				fd, err := c.K.Open(p, sdk.DevicePath, kernel.ORdwr, 0)
				if err != nil {
					return false, err.Error()
				}
				id := binary.LittleEndian.AppendUint32(nil, app.ID)
				if _, err := c.K.Ioctl(p, fd, sdk.ReqDestroyEnclave, id); err != nil {
					return false, err.Error()
				}
				serr := osSwitch(c, 0, app.Tag)
				return refused(c, serr, runs-1), fmt.Sprintf("switch: %v; the enclave ran %d times", serr, runs)
			},
		},
		{
			name:    "Rebind a domain to a non-VMSA page (hypervisor)",
			defence: "VMRUN refuses a page whose RMP entry is not a VMSA",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				if err := c.HV.AttemptRebind(0, core.DomSRV, c.TextLo); err != nil {
					return false, err.Error()
				}
				served, serr := probeSrvSwitch(c)
				return refused(c, serr, len(served)), fmt.Sprintf("switch: %v; Dom-SRV served the probe on VCPUs %v", serr, served)
			},
		},
		{
			name:    "Switch into another VCPU's VMSA (hypervisor)",
			defence: "VMRUN refuses a VMSA of another VCPU",
			run: func() (bool, string) {
				c, err := freshVeilSMP(2)
				if err != nil {
					return false, err.Error()
				}
				other, ok := c.Mon.ReplicaVMSA(1, core.DomSRV)
				if !ok {
					return false, "VCPU 1 has no Dom-SRV replica"
				}
				if err := c.HV.AttemptRebind(0, core.DomSRV, other); err != nil {
					return false, err.Error()
				}
				served, serr := probeSrvSwitch(c)
				return refused(c, serr, len(served)), fmt.Sprintf("switch: %v; Dom-SRV served the probe on VCPUs %v", serr, served)
			},
		},
	}
}
