package core

// Service operation codes shared between the OS-side stubs (the kernel
// patch) and the Dom-SRV service implementations. They are part of the
// IDCB wire protocol, so they live here rather than in the service
// packages.

// VeilS-Kci operations (§6.1).
const (
	// OpKciStage appends a chunk of a module image to the service's
	// staging buffer for this VCPU (payload: raw bytes). Large images
	// cross the IDCB in chunks.
	OpKciStage uint8 = 1
	// OpKciLoad verifies and installs the staged image into the frames
	// listed in the payload (count u32, then u64 frames). Response: the
	// module handle (u32).
	OpKciLoad uint8 = 2
	// OpKciFree unloads the module with the handle in the payload (u32).
	OpKciFree uint8 = 3
)

// VeilS-Enc management operations (§6.2). Enclave *execution* flows through
// Dom-ENC domain switches; these are the OS-side management requests.
const (
	// OpEncFinalize finalizes an installed enclave: payload carries the
	// process's page-table root, the enclave's virtual base/length, the
	// frame list, the entry point and the per-thread GHCB. Response: the
	// enclave ID (u32) and the 32-byte measurement.
	OpEncFinalize uint8 = 1
	// OpEncSyncPerms mirrors a non-enclave mprotect into the protected
	// enclave tables (payload: enclave id u32, virt u64, len u64, prot u64).
	OpEncSyncPerms uint8 = 2
	// OpEncPageFree asks VeilS-Enc to encrypt, hash and unmap one enclave
	// page so the OS can reclaim it (payload: id u32, virt u64).
	// Response: the encrypted page image the OS may keep on disk.
	OpEncPageFree uint8 = 3
	// OpEncPageRestore re-maps a previously freed page after verifying
	// its integrity and freshness (payload: id u32, virt u64, frame u64,
	// ciphertext bytes).
	OpEncPageRestore uint8 = 4
	// OpEncDestroy tears an enclave down (payload: id u32).
	OpEncDestroy uint8 = 5
)

// VeilS-Channel operations: attested sessions between the CVMs of a fleet.
// The OS is the network driver — it relays sealed frames between the
// service and the fabric, never holds a session key and cannot forge or
// replay a frame; every handshake and data frame it hands in is verified
// inside Dom-SRV. It does receive the opened messages of the sessions it
// terminates, in the responses to the data frames it delivers.
const (
	// OpChnDial starts a session to a peer machine (payload: peer u32).
	// Response: the ChnEventDialing event header (event u8, init u32,
	// session u32), then the dial frame to transmit.
	OpChnDial uint8 = 1
	// OpChnDeliver hands the service one frame received from the fabric
	// (payload: raw frame). Response: the event header (event u8, init
	// u32, session u32) naming what the frame changed. A ChnEventQueued
	// header is followed by the opened message; any other by u8
	// has-reply and, when 1, dst u32 and the reply frame to transmit.
	// StatusDenied (no body) means the frame was refused (bad report,
	// replay, unknown peer) — with auditor evidence — and changed nothing.
	OpChnDeliver uint8 = 2
	// OpChnSend seals one application message for an established session
	// (payload: init u32, session u32, message bytes). Response: dst u32,
	// then the sealed data frame to transmit.
	OpChnSend uint8 = 3
	// OpChnState queries a session (payload: init u32, session u32).
	// Response: u8 state (ChnStateNone, ChnStateDialing or
	// ChnStateEstablished).
	OpChnState uint8 = 5
)

// VeilS-Channel session states, as OpChnState reports them. Established
// is terminal: no operation ever moves a session out of it.
const (
	ChnStateNone        uint8 = 0
	ChnStateDialing     uint8 = 1
	ChnStateEstablished uint8 = 2
)

// VeilS-Channel events: the first byte of every OK OpChnDial and
// OpChnDeliver response, followed by the (init u32, session u32) pair the
// event concerns. Beyond the messages a Queued event carries, they tell
// the OS nothing it could not infer from the frame's cleartext header and
// the response status, but they let the stub's session view answer polls
// and receives without a domain switch.
const (
	// ChnEventDialing: a session was created in the Dialing state (a
	// local dial, or a peer's Dial frame at the responder).
	ChnEventDialing uint8 = 1
	// ChnEventEstablished: an Offer or Answer frame completed the
	// handshake.
	ChnEventEstablished uint8 = 2
	// ChnEventQueued: a data frame was opened; its message follows the
	// header, for the OS to queue on the session.
	ChnEventQueued uint8 = 3
)

// ChnEventLen is the wire size of the event header.
const ChnEventLen = 9

// VeilS-Log operations (§6.3).
const (
	// OpLogAppend appends one audit record (payload: record bytes).
	OpLogAppend uint8 = 1
	// OpLogStats returns (count u64, bytes u64, dropped u64).
	OpLogStats uint8 = 2
)
