package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"veil/internal/core"
	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/sdk"
	"veil/internal/workloads"
)

// The three program workloads run one of the paper's evaluation programs
// unchanged behind the metered Libc: shielded in a VeilS-Enc enclave
// (enc-sqlite, enc-lighttpd) or natively under kaudit routed to VeilS-Log
// (audit-nginx). A request is one Libc call of the program.

const (
	sqliteInserts    = 40_000
	lighttpdRequests = 12_000
	nginxRequests    = 8_000
	// nginxStorePages holds a full-scale audit-nginx round (about 104k
	// records, 8.7 MiB) with more than 5% headroom; it scales with -scale.
	nginxStorePages = 4096
	// wwwFiles and wwwFileSize mirror the document root the workloads
	// package seeds for its web servers.
	wwwFiles    = 64
	wwwFileSize = 10 << 10
	// bodyCheckStride: every 63rd body sent is compared with the file it
	// must carry; 63 is coprime to the 64 files, so every file is checked.
	bodyCheckStride = 63
	// sqliteCheckedSlots is how many seeded table slots are decoded back.
	sqliteCheckedSlots = 64
)

// program describes one program workload.
type program struct {
	build func(r *round) workloads.Workload
	// calls is the program's Libc call count for the round.
	calls    func(r *round) int
	mem      uint64
	logPages func(r *round) uint64
	audit    bool
	enclave  bool
	www      bool
	check    func(r *round, c *cvm.CVM, l *meteredLibc)
}

// programRun is one booted instance of a program workload.
type programRun struct {
	c   *cvm.CVM
	w   workloads.Workload
	l   *meteredLibc
	app *sdk.AppRuntime
	run func() (int, error)
}

// launch boots the CVM and readies the program; veil false boots the same
// kernel natively with no auditing (the model's baseline).
func (p *program) launch(r *round, veil bool) (*programRun, error) {
	pr := &programRun{w: p.build(r)}
	opts := cvm.Options{
		MemBytes: p.mem, VCPUs: 1, Veil: veil,
		Rand: keyReader{r.rng(1)}, Recorder: r.recorder(),
	}
	if p.logPages != nil {
		opts.LogPages = p.logPages(r)
	}
	if veil && p.audit {
		opts.AuditRules = kernel.DefaultRuleset()
	}
	t := time.Now()
	c, err := cvm.Boot(opts)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	r.bootDone(t)
	pr.c = c
	if err := pr.w.Setup(c); err != nil {
		return pr, fmt.Errorf("workload setup: %w", err)
	}
	pr.l = &meteredLibc{clk: c.M.Clock(), r: r}
	if p.www {
		pages, err := seedDocRoot(c, r)
		if err != nil {
			return pr, err
		}
		pr.l.onSend = bodyChecker(r, pages)
	}
	prog := pr.w.Build(c)
	metered := sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
		pr.l.Libc = lc
		return prog.Main(pr.l, args)
	})
	if veil && p.enclave {
		host := c.K.Spawn(pr.w.Name + "-host")
		app, err := sdk.LaunchEnclave(c, host, metered, sdk.EnclaveConfig{RegionPages: pr.w.RegionPages})
		if err != nil {
			return pr, fmt.Errorf("launch enclave: %w", err)
		}
		pr.app = app
		pr.run = func() (int, error) { return app.Enter(pr.w.Args...) }
	} else {
		proc := c.K.Spawn(pr.w.Name)
		pr.l.pid = proc.PID
		lc := &sdk.DirectLibc{K: c.K, P: proc}
		pr.run = func() (int, error) { return metered.Main(lc, pr.w.Args), nil }
	}
	return pr, nil
}

func (p *program) round(r *round) error {
	pr, err := p.launch(r, true)
	if pr != nil && pr.c != nil {
		defer pr.c.M.Release()
	}
	if err != nil {
		return err
	}
	r.attempted = uint64(p.calls(r))
	if err := r.beginWindow(pr.c.M); err != nil {
		return err
	}
	exit, err := pr.run()
	r.endWindow()
	if err != nil {
		return fmt.Errorf("run %s: %w", pr.w.Name, err)
	}
	if exit != 0 {
		r.failf("%s exited with %d", pr.w.Name, exit)
	}
	r.machineLayers()
	if pr.app != nil {
		if pr.app.Enclave().Dead() {
			r.failf("enclave was killed")
		}
		r.layer["sdk.copy_bytes_per_op"] = r.perOp(pr.l.copied)
		r.layer["sdk.marshal_calls_per_op"] = r.perOp(pr.app.Enclave().Calls())
		r.layer["sdk.enclave_exits_per_op"] = r.perOp(pr.app.Enclave().Exits())
	}
	p.check(r, pr.c, pr.l)
	return nil
}

// native runs the same program on a native CVM without auditing and
// returns its virtual cycles and request count.
func (p *program) native(seed int64, scale float64) (vcyc, requests uint64, err error) {
	r := newRound(seed, scale, false)
	pr, err := p.launch(r, false)
	if pr != nil && pr.c != nil {
		defer pr.c.M.Release()
	}
	if err != nil {
		return 0, 0, err
	}
	start := pr.c.M.Clock().Cycles()
	exit, err := pr.run()
	if err != nil {
		return 0, 0, err
	}
	if exit != 0 || r.failed != 0 {
		return 0, 0, fmt.Errorf("native %s: exit %d, %d failed requests", pr.w.Name, exit, r.failed)
	}
	return pr.c.M.Clock().Cycles() - start, r.requests, nil
}

// seedDocRoot overwrites the document root with content drawn from the
// round's seed and returns the files it wrote.
func seedDocRoot(c *cvm.CVM, r *round) ([][]byte, error) {
	rng := r.rng(2)
	pages := make([][]byte, wwwFiles)
	for i := range pages {
		pages[i] = make([]byte, wwwFileSize)
		rng.Read(pages[i])
		ino, err := c.K.VFS().Lookup(fmt.Sprintf("/data/www/file-%d", i))
		if err != nil {
			return nil, fmt.Errorf("seed doc root: %w", err)
		}
		ino.Data = append(ino.Data[:0], pages[i]...)
	}
	return pages, nil
}

// bodyChecker compares every bodyCheckStride-th response body the server
// sends with the file request i asked for (file-(i%64)).
func bodyChecker(r *round, pages [][]byte) func([]byte) {
	body := 0
	return func(buf []byte) {
		if len(buf) != wwwFileSize {
			return // a response header
		}
		if body%bodyCheckStride == 0 && !bytes.Equal(buf, pages[body%wwwFiles]) {
			r.failf("body %d differs from file-%d", body, body%wwwFiles)
		}
		body++
	}
}

func fileSize(c *cvm.CVM, path string) int64 {
	ino, err := c.K.VFS().Lookup(path)
	if err != nil {
		return -1
	}
	return ino.Size()
}

func checkSQLite(r *round, c *cvm.CVM, _ *meteredLibc) {
	n := int64(r.scaled(sqliteInserts))
	if got, want := fileSize(c, "/data/test.db"), 64+128*n; got != want {
		r.failf("database is %d B, want %d", got, want)
		return
	}
	if got, want := fileSize(c, "/data/test.db-journal"), 80*n; got != want {
		r.failf("journal is %d B, want %d", got, want)
	}
	db, _ := c.K.VFS().Lookup("/data/test.db")
	rng := r.rng(3)
	for i := 0; i < sqliteCheckedSlots; i++ {
		slot := rng.Int63n(n)
		rec := db.Data[64+128*slot:]
		if key := binary.LittleEndian.Uint64(rec); key != uint64(slot) {
			r.failf("slot %d holds key %d", slot, key)
		}
	}
}

// noCheck is for programs whose outputs are checked while they run.
func noCheck(*round, *cvm.CVM, *meteredLibc) {}

// checkNGINX: every audited event reached VeilS-Log, none was dropped,
// and the last record read back is the server's final close, stamped
// inside that call.
func checkNGINX(r *round, c *cvm.CVM, l *meteredLibc) {
	emitted := c.K.Audit().Count()
	if c.LOG.Count() != emitted {
		r.failf("VeilS-Log holds %d records, kernel emitted %d", c.LOG.Count(), emitted)
	}
	if d := c.LOG.Dropped(); d != 0 {
		r.failf("VeilS-Log dropped %d records", d)
	}
	r.layer["vlog.records_per_op"] = r.perOp(c.LOG.Count())
	r.layer["vlog.dropped"] = float64(c.LOG.Dropped())
	if fill, err := storeFill(c); err == nil {
		r.layer["vlog.store_fill_ratio"] = fill
	} else {
		r.failf("log stats: %v", err)
	}
	recs, err := c.LOG.Records()
	if err != nil || len(recs) == 0 {
		r.failf("log read-back: %d records, %v", len(recs), err)
		return
	}
	var ts uint64
	var pid, uid int
	var sys string
	last := string(recs[len(recs)-1])
	if _, err := fmt.Sscanf(last, "audit(%d): pid=%d uid=%d syscall=%s", &ts, &pid, &uid, &sys); err != nil ||
		pid != l.pid || sys != "close" || ts < l.lastBegin || ts > l.lastEnd {
		r.failf("last record %q is not the server's final close (pid %d, cycles %d..%d)", last, l.pid, l.lastBegin, l.lastEnd)
	}
}

// storeFill asks VeilS-Log for its statistics over the OS's own service
// path and returns the used share of the store.
func storeFill(c *cvm.CVM) (float64, error) {
	resp, err := c.Stub.CallSrv(core.Request{Svc: core.SvcLOG, Op: core.OpLogStats})
	if err != nil {
		return 0, err
	}
	if resp.Status != core.StatusOK || len(resp.Payload) < 16 {
		return 0, fmt.Errorf("log stats: status %d, %d B", resp.Status, len(resp.Payload))
	}
	used := binary.LittleEndian.Uint64(resp.Payload[8:])
	return float64(used) / float64(c.LOG.Capacity()), nil
}
