package sdk

// Shared-region layout: one user-mapped area both sides of the enclave
// boundary can reach (the untrusted application's memory, present in the
// cloned enclave tables). All offsets are from the region base.
const (
	// descOff holds the syscall (OCALL) descriptor.
	descOff = 0x000
	// entryOff holds the enclave entry/exit command block.
	entryOff = 0x800
	// stageOff starts the data staging area for deep-copied buffers.
	stageOff = 0x1000
	// SharedLen is the total shared region size.
	SharedLen = 64 << 10
	// stageLimit is the staging capacity per syscall.
	stageLimit = SharedLen - stageOff

	maxOcallArgs = 16
)

// Descriptor field offsets. The request header {sysno, nargs}, the
// argument slots and the reply {ret, errno} each cross as one frame; the
// codec in descriptor.go is their only reader and writer.
const (
	dSysno = descOff + 0
	dNArgs = descOff + 8
	dRet   = descOff + 16
	dErrno = descOff + 24
	dArgs  = descOff + 0x40 // maxOcallArgs × 24 bytes: {val, stage, len}
)

// Entry block field offsets.
const (
	eCmd    = entryOff + 0  // 1 = run program
	eStatus = entryOff + 8  // 0 = ok, 1 = enclave dead
	eExit   = entryOff + 16 // program exit code
	eArgLen = entryOff + 24 // serialized argv length
	eArgs   = entryOff + 32 // serialized argv bytes
)

// argvMax bounds the serialized argv: it runs from eArgs to the staging
// area.
const argvMax = stageOff - eArgs

const cmdRun = 1
