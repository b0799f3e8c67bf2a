package attacks

// VeilS-Kci attacks: after boot, kernel and module text is never
// VMPL3-writable and kernel data is never VMPL3 supervisor-executable
// (§6.1). Each attack is the OS sending well-formed requests that name
// text or data pages, trying to get a trusted domain to lift that promise
// for it, and then writing the text or executing the data.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/snp"
	"veil/internal/vmod"
)

// opKciActivate is the VeilS-Kci op that once re-ran W⊕X activation over
// ranges the OS chose; activation now happens only at boot.
const opKciActivate uint8 = 4

// activatePayload encodes op 4's payload: text ranges, then data ranges,
// each a u32 count followed by [lo, hi) u64 pairs.
func activatePayload(text, data [][2]uint64) []byte {
	var b []byte
	for _, rs := range [][][2]uint64{text, data} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rs)))
		for _, r := range rs {
			b = binary.LittleEndian.AppendUint64(b, r[0])
			b = binary.LittleEndian.AppendUint64(b, r[1])
		}
	}
	return b
}

// signedModule is a one-text-page module signed with the CVM's vendor key.
func signedModule(c *cvm.CVM) (image []byte, pages int) {
	m := &vmod.Module{
		Name:   "kci-victim",
		Text:   bytes.Repeat([]byte{0x90}, 2500),
		Data:   bytes.Repeat([]byte{0x01}, 500),
		Relocs: []vmod.Reloc{{Offset: 0, Symbol: "printk"}},
	}
	return m.Sign(c.ModulePriv), m.InstalledSize() / snp.PageSize
}

// loadedModuleText loads a signed module through the kernel and returns
// its first write-protected text frame.
func loadedModuleText(c *cvm.CVM) (uint64, error) {
	image, _ := signedModule(c)
	lm, err := c.K.Modules().Load(image)
	if err != nil {
		return 0, err
	}
	frames, ok := c.KCI.ModuleTextFrames(lm.VeilHandle())
	if !ok || len(frames) == 0 {
		return 0, fmt.Errorf("module %d has no text frames", lm.ID)
	}
	return frames[0], nil
}

// textWriteFaults is the verdict the text attacks share: the OS's write
// to text takes an #NPF and halts the CVM.
func textWriteFaults(c *cvm.CVM, text uint64) (bool, error) {
	werr := c.K.WritePhys(text, []byte{0xCC})
	return snp.IsNPF(werr) && c.M.Halted() != nil, werr
}

// reactivateOverText sends op 4 with one data range over the text page.
func reactivateOverText(c *cvm.CVM, text uint64) (bool, string) {
	payload := activatePayload(nil, [][2]uint64{{text, text + snp.PageSize}})
	resp, err := c.Stub.CallSrv(core.Request{Svc: core.SvcKCI, Op: opKciActivate, Payload: payload})
	if err != nil {
		return false, err.Error()
	}
	faults, werr := textWriteFaults(c, text)
	return resp.Status != core.StatusOK && faults,
		fmt.Sprintf("activate status %d; text write: %v", resp.Status, werr)
}

// revalidateText rescinds and re-validates the text page through
// OpPValidate, which once came back with VMPL3 write granted.
func revalidateText(c *cvm.CVM, text uint64) (bool, string) {
	rerr := c.Stub.PValidate(text, false)
	verr := c.Stub.PValidate(text, true)
	faults, werr := textWriteFaults(c, text)
	return errors.Is(rerr, core.ErrDenied) && errors.Is(verr, core.ErrDenied) && faults,
		fmt.Sprintf("rescind: %v; validate: %v; text write: %v", rerr, verr, werr)
}

// kciAttacks are the Validation suite's W⊕X rows.
func kciAttacks() []attack {
	return []attack{
		{
			name:    "Re-activate W⊕X with kernel text as data (OS)",
			defence: "Activation is boot-only",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				return reactivateOverText(c, c.TextLo)
			},
		},
		{
			name:    "Re-activate W⊕X with module text as data (OS)",
			defence: "Activation is boot-only",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				text, err := loadedModuleText(c)
				if err != nil {
					return false, err.Error()
				}
				return reactivateOverText(c, text)
			},
		},
		{
			name:    "Load a module into kernel text, then free it (OS)",
			defence: "OS request sanitized",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				image, pages := signedModule(c)
				frames := make([]uint64, pages)
				for i := range frames {
					frames[i] = c.TextLo + uint64(i)*snp.PageSize
				}
				handle, lerr := c.Stub.LoadModule(image, frames)
				var ferr error
				if lerr == nil {
					ferr = c.Stub.FreeModule(handle)
				}
				faults, werr := textWriteFaults(c, c.TextLo)
				return errors.Is(lerr, core.ErrDenied) && faults,
					fmt.Sprintf("load: %v; free: %v; text write: %v", lerr, ferr, werr)
			},
		},
		{
			name:    "Re-validate kernel text through PVALIDATE (OS)",
			defence: "OS request sanitized",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				return revalidateText(c, c.TextLo)
			},
		},
		{
			name:    "Re-validate module text through PVALIDATE (OS)",
			defence: "OS request sanitized",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				text, err := loadedModuleText(c)
				if err != nil {
					return false, err.Error()
				}
				return revalidateText(c, text)
			},
		},
		{
			name:    "Re-validate kernel data to execute it as supervisor (OS)",
			defence: "Re-validation restores the data grants",
			run: func() (bool, string) {
				c, err := freshVeil()
				if err != nil {
					return false, err.Error()
				}
				f, err := c.K.AllocFrame()
				if err != nil {
					return false, err.Error()
				}
				if err := c.Stub.PValidate(f, false); err != nil {
					return false, err.Error()
				}
				if err := c.Stub.PValidate(f, true); err != nil {
					return false, err.Error()
				}
				e, _ := c.M.RMPEntryAt(f)
				xerr := c.M.GuestExecCheckPhys(snp.VMPL3, snp.CPL0, f)
				return snp.IsNPF(xerr), fmt.Sprintf("VMPL3 %s; supervisor exec: %v", e.Perms[snp.VMPL3], xerr)
			},
		},
	}
}
