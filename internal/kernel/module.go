package kernel

import (
	"crypto/ed25519"
	"fmt"

	"veil/internal/snp"
	"veil/internal/vmod"
)

// Module-lifecycle cost model (workload constants, not architectural ones).
// Calibrated against CS1: loading the paper's 4728-byte test module costs
// ~960k cycles natively and unloading ~1.31M, so the ~55k-cycle VeilS-Kci
// delta lands at +5.7% (load) and +4.2% (unload).
const (
	CyclesModuleLoadBase   = 960_000
	CyclesModuleUnloadBase = 1_310_000
	// CyclesSigVerify models the module signature check, charged on
	// whichever side verifies (in-kernel natively, VeilS-Kci under Veil).
	CyclesSigVerify = 30_000
)

// LoadedModule is the kernel's record of an installed module.
type LoadedModule struct {
	ID     int
	Name   string
	Frames []uint64 // all installed frames, text first
	Text   int      // number of text frames (prefix of Frames)
	Size   int      // installed byte footprint
	// veilHandle is the VeilS-Kci handle when loaded through the hook.
	veilHandle int
	behavior   func(k *Kernel) error
}

// ModuleManager implements load_module/free_module. Natively the kernel
// verifies and installs modules itself; under Veil both routines are hooked
// to VeilS-Kci (§7), with only memory allocation left to the kernel (§6.1).
type ModuleManager struct {
	k         *Kernel
	nextID    int
	loaded    map[int]*LoadedModule
	key       ed25519.PublicKey
	symtab    map[string]uint64
	behaviors map[string]func(k *Kernel) error
}

// NewModuleManager creates the manager with an empty trusted key.
func NewModuleManager(k *Kernel) *ModuleManager {
	m := &ModuleManager{
		k:         k,
		nextID:    1,
		loaded:    make(map[int]*LoadedModule),
		symtab:    map[string]uint64{},
		behaviors: map[string]func(k *Kernel) error{},
	}
	// A few "kernel exports" for relocation targets. The addresses are
	// stable tokens; what matters is that relocation resolves against a
	// table the attacker cannot rewrite (VeilS-Kci keeps its own copy).
	m.symtab["printk"] = 0xffffffff81000100
	m.symtab["kmalloc"] = 0xffffffff81000200
	m.symtab["register_chrdev"] = 0xffffffff81000300
	m.symtab["audit_log_end"] = 0xffffffff81000400
	return m
}

// SetSigningKey installs the module verification key (from the boot image).
func (mm *ModuleManager) SetSigningKey(pub ed25519.PublicKey) { mm.key = pub }

// SymbolTable exposes the kernel export table (VeilS-Kci snapshots it into
// protected memory at boot).
func (mm *ModuleManager) SymbolTable() map[string]uint64 { return mm.symtab }

// RegisterBehavior binds the simulated payload that "runs" when a module
// with the given name is executed.
func (mm *ModuleManager) RegisterBehavior(name string, fn func(k *Kernel) error) {
	mm.behaviors[name] = fn
}

// Load installs a signed module image (load_module). Memory allocation is
// done here in the kernel; everything else — verification, copying,
// relocation, write-protection — happens in VeilS-Kci when hooked (§6.1),
// avoiding the TOCTOU window of verify-then-let-the-kernel-install.
func (mm *ModuleManager) Load(image []byte) (*LoadedModule, error) {
	k := mm.k
	k.m.Clock().Charge(snp.CostCompute, CyclesModuleLoadBase)
	parsed, err := vmod.Parse(image)
	if err != nil {
		return nil, err
	}
	pages := parsed.InstalledSize() / snp.PageSize
	frames := make([]uint64, 0, pages)
	for i := 0; i < pages; i++ {
		f, err := k.AllocFrame()
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	lm := &LoadedModule{
		ID:       mm.nextID,
		Name:     parsed.Name,
		Frames:   frames,
		Text:     parsed.TextPages(),
		Size:     parsed.InstalledSize(),
		behavior: mm.behaviors[parsed.Name],
	}

	if h := k.cfg.Hooks; h != nil {
		handle, err := h.LoadModule(image, frames)
		if err != nil {
			mm.freeFrames(frames)
			return nil, err
		}
		lm.veilHandle = handle
	} else {
		// Native path: in-kernel verification and installation. The text
		// is left writable in hardware terms — native W⊕X relies on page
		// tables the attacker can flip, which is the gap VeilS-Kci closes.
		if mm.key == nil {
			mm.freeFrames(frames)
			return nil, fmt.Errorf("kernel: no module signing key")
		}
		k.m.Clock().Charge(snp.CostCompute, CyclesSigVerify)
		if err := vmod.Verify(mm.key, image); err != nil {
			mm.freeFrames(frames)
			return nil, err
		}
		text := append([]byte(nil), parsed.Text...)
		if err := vmod.Relocate(text, parsed.Relocs, mm.symtab); err != nil {
			mm.freeFrames(frames)
			return nil, err
		}
		if err := mm.installSections(frames, parsed, text); err != nil {
			mm.freeFrames(frames)
			return nil, err
		}
	}
	mm.nextID++
	mm.loaded[lm.ID] = lm
	return lm, nil
}

// installSections copies text then data into the allocated frames through
// the kernel direct map (charging the copies).
func (mm *ModuleManager) installSections(frames []uint64, m *vmod.Module, text []byte) error {
	k := mm.k
	writeChunks := func(startFrame int, data []byte) error {
		for off := 0; off < len(data); off += snp.PageSize {
			end := off + snp.PageSize
			if end > len(data) {
				end = len(data)
			}
			if err := k.WritePhys(frames[startFrame+off/snp.PageSize], data[off:end]); err != nil {
				return err
			}
			k.chargeCopy(end - off)
		}
		return nil
	}
	if err := writeChunks(0, text); err != nil {
		return err
	}
	return writeChunks(m.TextPages(), m.Data)
}

func (mm *ModuleManager) freeFrames(frames []uint64) {
	for _, f := range frames {
		_ = mm.k.FreeFrame(f)
	}
}

// Exec runs the module's simulated payload after the hardware execute check
// on its text frames — this is where a corrupted text page is caught.
func (mm *ModuleManager) Exec(id int) error {
	lm, ok := mm.loaded[id]
	if !ok {
		return fmt.Errorf("kernel: no module %d", id)
	}
	for i := 0; i < lm.Text; i++ {
		if err := mm.k.m.GuestExecCheckPhys(mm.k.cfg.VMPL, snp.CPL0, lm.Frames[i]); err != nil {
			return err
		}
	}
	if lm.behavior != nil {
		return lm.behavior(mm.k)
	}
	return nil
}

// Unload removes a module (free_module), lifting VeilS-Kci protection
// first when hooked.
func (mm *ModuleManager) Unload(id int) error {
	lm, ok := mm.loaded[id]
	if !ok {
		return fmt.Errorf("kernel: no module %d", id)
	}
	mm.k.m.Clock().Charge(snp.CostCompute, CyclesModuleUnloadBase)
	if h := mm.k.cfg.Hooks; h != nil {
		if err := h.FreeModule(lm.veilHandle); err != nil {
			return err
		}
	}
	mm.freeFrames(lm.Frames)
	delete(mm.loaded, id)
	return nil
}

// VeilHandle returns the VeilS-Kci handle for a module loaded through the
// hook (zero for native loads).
func (lm *LoadedModule) VeilHandle() int { return lm.veilHandle }
