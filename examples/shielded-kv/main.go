// Shielded key-value store: runs a small KV service inside a VeilS-Enc
// enclave. The OS hosts and schedules it — and serves its redirected
// syscalls — but can neither read its memory nor tamper with its layout.
// The remote user verifies the enclave measurement before trusting it.
// Between two entries the OS evicts the page holding the table, and the
// enclave's next touch pages it back in (§6.2 demand paging).
//
//	go run ./examples/shielded-kv
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"sort"
	"strings"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/sdk"
	"veil/internal/snp"
)

// tablePage is the enclave page that holds the table between entries: the
// first page of the region's upper half, above the image.
func tablePage(base, length uint64) uint64 { return base + length/2 }

// kvProgram is the enclave: it keeps its table in enclave memory, where it
// survives from one entry to the next, and persists an
// (encrypted-at-the-paper-level-by-VMPL) snapshot through the redirected
// syscall interface.
func kvProgram(lc sdk.Libc, args []string) int {
	er := lc.(*sdk.EnclaveRuntime)
	page := tablePage(er.View().Base, er.View().Length)
	table, err := loadTable(er, page)
	if err != nil {
		return -1
	}
	for _, op := range args {
		switch {
		case strings.HasPrefix(op, "put:"):
			kv := strings.SplitN(op[4:], "=", 2)
			table[kv[0]] = kv[1]
		case strings.HasPrefix(op, "get:"):
			lc.Print(fmt.Sprintf("%s=%s\n", op[4:], table[op[4:]]))
		}
	}
	if err := storeTable(er, page, table); err != nil {
		return -1
	}
	// Persist a snapshot via the untrusted OS (contents chosen by the
	// enclave; a real deployment would seal them first).
	f, err := lc.Open("/data/kv.snapshot", kernel.OCreat|kernel.OWronly|kernel.OTrunc, 0o600)
	if err != nil {
		return 1
	}
	for k, v := range table {
		lc.Write(f, []byte(k+"="+v+"\n"))
	}
	lc.Close(f)
	return len(table)
}

// storeTable writes the table to enclave memory at page as a u32 length
// and sorted "key=value\n" lines.
func storeTable(er *sdk.EnclaveRuntime, page uint64, table map[string]string) error {
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var body []byte
	for _, k := range keys {
		body = append(body, k+"="+table[k]+"\n"...)
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	if len(buf)+len(body) > snp.PageSize {
		return fmt.Errorf("table outgrew its page")
	}
	return er.WriteMem(page, append(buf, body...))
}

// loadTable reads the table storeTable left at page. A page the enclave
// never wrote is zero, which reads as an empty table. If the OS evicted
// the page, ReadMem pages it back in first.
func loadTable(er *sdk.EnclaveRuntime, page uint64) (map[string]string, error) {
	var n [4]byte
	if err := er.ReadMem(page, n[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(n[:])
	if size > snp.PageSize-4 {
		return nil, fmt.Errorf("table length %d overruns its page", size)
	}
	body := make([]byte, size)
	if err := er.ReadMem(page+4, body); err != nil {
		return nil, err
	}
	table := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if k, v, ok := strings.Cut(line, "="); ok {
			table[k] = v
		}
	}
	return table, nil
}

func main() {
	c, err := cvm.Boot(cvm.Options{MemBytes: 64 << 20, VCPUs: 1, Veil: true, LogPages: 16})
	if err != nil {
		log.Fatal(err)
	}

	// The user attests the CVM first, then the enclave.
	user, err := core.NewRemoteUser(c.PSP.PublicKey(), c.ExpectedMeasurement(), nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := user.Connect(c.Stub); err != nil {
		log.Fatal(err)
	}

	host := c.K.Spawn("kv-host")
	app, err := sdk.LaunchEnclave(c, host, sdk.ProgramFunc(kvProgram), sdk.EnclaveConfig{
		RegionPages: 32,
		Image:       []byte("shielded-kv v1.0"),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Verify the enclave measurement over the secure channel before
	// provisioning any data.
	msg := append([]byte{core.SvcENC}, []byte("MEASURE ")...)
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], app.ID)
	meas, err := user.Request(c.Stub, append(msg, id[:]...))
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(meas, app.Measurement[:]) {
		log.Fatal("enclave measurement mismatch — do not provision secrets")
	}
	fmt.Printf("enclave %d attested: %x...\n", app.ID, meas[:8])

	// Run the shielded service.
	n, err := app.Enter("put:alice=1942", "put:bob=7", "get:alice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enclave stored %d entries (%d exits for redirected syscalls)\n",
		n, app.Enclave().Exits())

	// Memory pressure: the OS evicts the page holding the table. VeilS-Enc
	// seals it first, so the swap file holds only ciphertext.
	view := app.Enclave().View()
	if err := app.EvictPage(tablePage(view.Base, view.Length)); err != nil {
		log.Fatal(err)
	}
	exits := app.Enclave().Exits()
	n, err = app.Enter("put:carol=3", "get:bob")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after eviction the enclave paged its table back in and holds %d entries (%d exits)\n",
		n, app.Enclave().Exits()-exits)

	// The OS can see the snapshot the enclave chose to write out...
	snap, _ := c.K.VFS().Lookup("/data/kv.snapshot")
	fmt.Printf("OS-visible snapshot: %d bytes\n", len(snap.Data))

	// ...but not the enclave's memory.
	frames, _ := host.RegionFrames(kernel.UserBinBase)
	if err := c.K.ReadPhys(frames[0], make([]byte, 16)); !snp.IsNPF(err) {
		log.Fatal("enclave memory was readable!")
	}
	fmt.Println("OS read of enclave memory faulted (#NPF) — the CVM halts, secrets stay sealed")
}
