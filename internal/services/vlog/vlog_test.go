package vlog_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/snp"
)

func bootVeil(t *testing.T, logPages uint64) *cvm.CVM {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 24 << 20, VCPUs: 1, Veil: true, LogPages: logPages,
		Rand: cvm.SeededRand(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAppendThroughStubAndRetrieve(t *testing.T) {
	c := bootVeil(t, 8)
	for i := 0; i < 5; i++ {
		if err := c.Stub.AuditEmit([]byte("record-entry")); err != nil {
			t.Fatal(err)
		}
	}
	if c.LOG.Count() != 5 {
		t.Fatalf("count = %d", c.LOG.Count())
	}
	recs, err := c.LOG.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || string(recs[0]) != "record-entry" {
		t.Fatalf("records: %d %q", len(recs), recs[0])
	}
}

func TestExecuteAheadProtectsAgainstLaterCompromise(t *testing.T) {
	c := bootVeil(t, 8)
	c.K.Audit().SetRules([]kernel.SysNo{kernel.SysOpen, kernel.SysUnlink})
	p := c.K.Spawn("honest-then-compromised")
	if _, err := c.K.Open(p, "/tmp/evidence", kernel.OCreat|kernel.OWronly, 0o644); err != nil {
		t.Fatal(err)
	}
	// Attacker now controls the kernel and tries to wipe the trail: the
	// store is unreachable from Dom-UNT, so the CVM halts instead.
	recsBefore := c.LOG.Count()
	err := c.K.WritePhys(c.Lay.MonHeapLo, []byte("wipe"))
	if !snp.IsNPF(err) {
		t.Fatalf("log wipe attempt = %v, want #NPF", err)
	}
	if c.LOG.Count() != recsBefore {
		t.Fatal("records lost")
	}
}

func TestOverflowDropsAndCounts(t *testing.T) {
	c := bootVeil(t, 1) // one-page store
	rec := bytes.Repeat([]byte{'x'}, 1000)
	var errCount int
	for i := 0; i < 8; i++ {
		if err := c.Stub.AuditEmit(rec); err != nil {
			errCount++
		}
	}
	if c.LOG.Dropped() == 0 {
		t.Fatal("overflow not detected")
	}
	if c.LOG.Count() != 4 { // 4×1004 bytes fit a 4096-byte store
		t.Fatalf("stored = %d", c.LOG.Count())
	}
	if errCount == 0 {
		t.Fatal("OS never saw an append failure")
	}
}

func TestStatsOp(t *testing.T) {
	c := bootVeil(t, 4)
	_ = c.Stub.AuditEmit([]byte("one"))
	resp, err := c.Stub.CallSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogStats})
	if err != nil || resp.Status != core.StatusOK {
		t.Fatalf("stats: %v %d", err, resp.Status)
	}
	if binary.LittleEndian.Uint64(resp.Payload[0:]) != 1 {
		t.Fatal("stats count wrong")
	}
}

func TestUserFetchAndClearOverChannel(t *testing.T) {
	c := bootVeil(t, 8)
	_ = c.Stub.AuditEmit([]byte("alpha"))
	_ = c.Stub.AuditEmit([]byte("beta"))

	user, err := core.NewRemoteUser(c.PSP.PublicKey(), c.ExpectedMeasurement(),
		cvm.SeededRand(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Connect(c.Stub); err != nil {
		t.Fatal(err)
	}
	fetch, err := user.Request(c.Stub, append([]byte{core.SvcLOG}, "FETCH"...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fetch, []byte("alpha")) || !bytes.Contains(fetch, []byte("beta")) {
		t.Fatalf("fetch payload: %q", fetch)
	}
	// Only the user can truncate (§8.2): do it and verify.
	if _, err := user.Request(c.Stub, append([]byte{core.SvcLOG}, "CLEAR"...)); err != nil {
		t.Fatal(err)
	}
	if c.LOG.Count() != 0 {
		t.Fatal("clear did not truncate")
	}
	stats, err := user.Request(c.Stub, append([]byte{core.SvcLOG}, "STATS"...))
	if err != nil || !strings.HasPrefix(string(stats), "count=0") {
		t.Fatalf("stats after clear: %q %v", stats, err)
	}
}

func TestOSForgedUserMessageRejected(t *testing.T) {
	c := bootVeil(t, 4)
	user, _ := core.NewRemoteUser(c.PSP.PublicKey(), c.ExpectedMeasurement(),
		cvm.SeededRand(33))
	if err := user.Connect(c.Stub); err != nil {
		t.Fatal(err)
	}
	// The OS injects a fake "CLEAR" without the channel key.
	resp, err := c.Stub.CallMon(core.Request{
		Svc: core.SvcMon, Op: core.OpUserMessage,
		Payload: append([]byte{core.SvcLOG}, "CLEAR"...),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status == core.StatusOK {
		t.Fatal("forged channel message accepted")
	}
}

func TestCapacityReporting(t *testing.T) {
	c := bootVeil(t, 4)
	if c.LOG.Capacity() != 4*snp.PageSize {
		t.Fatalf("capacity = %d", c.LOG.Capacity())
	}
}

// TestAppendAcrossStorePages appends records whose length prefix and
// bytes straddle a store page boundary: each reads back whole, and an
// append takes one write span per store page it touches, so a straddling
// one takes exactly one more than one inside a page.
func TestAppendAcrossStorePages(t *testing.T) {
	c := bootVeil(t, 4)
	spanWrites := func(rec []byte) uint64 {
		t.Helper()
		before := c.M.MemStats().SpanWrites
		if err := c.Stub.AuditEmit(rec); err != nil {
			t.Fatal(err)
		}
		return c.M.MemStats().SpanWrites - before
	}
	var want [][]byte
	emit := func(n int, b byte) uint64 {
		rec := bytes.Repeat([]byte{b}, n)
		want = append(want, rec)
		return spanWrites(rec)
	}
	// 2044 + 2044 + 6 bytes leave the next length prefix at 4094, two
	// bytes before the first page ends.
	emit(core.IDCBPayloadMax, 'a')
	emit(core.IDCBPayloadMax, 'b')
	inside := emit(4096-2-2*(4+core.IDCBPayloadMax)-4, 'c')
	straddle := emit(2000, 'd')
	emit(100, 'e')
	if straddle != inside+1 {
		t.Fatalf("an append across a store page boundary takes %d write spans, one inside a page %d; want one more", straddle, inside)
	}
	recs, err := c.LOG.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("read back %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d reads back %d bytes %.8q..., want %d bytes of %q", i, len(recs[i]), recs[i], len(want[i]), want[i][0])
		}
	}
}
