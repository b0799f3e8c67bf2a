package workloads_test

import (
	"testing"

	"veil/internal/cvm"
	"veil/internal/sdk"
	"veil/internal/workloads"
)

func bootNative(t *testing.T) *cvm.CVM {
	t.Helper()
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 48 << 20, VCPUs: 1, Veil: false,
		Rand: cvm.SeededRand(71),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runNative executes a workload natively and returns the syscall count.
func runNative(t *testing.T, c *cvm.CVM, w workloads.Workload) uint64 {
	t.Helper()
	if err := w.Setup(c); err != nil {
		t.Fatalf("%s setup: %v", w.Name, err)
	}
	prog := w.Build(c)
	p := c.K.Spawn(w.Name)
	before := c.M.Trace().Syscalls
	rc := prog.Main(&sdk.DirectLibc{K: c.K, P: p}, w.Args)
	if rc != 0 {
		t.Fatalf("%s exited %d", w.Name, rc)
	}
	return c.M.Trace().Syscalls - before
}

func TestGZipProducesCompressedOutput(t *testing.T) {
	c := bootNative(t)
	w := workloads.GZip(1 << 20)
	syscalls := runNative(t, c, w)
	out, err := c.K.VFS().Lookup("/data/output.gz")
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() == 0 {
		t.Fatal("no compressed output")
	}
	// Pseudo-random input barely compresses: output close to input size.
	if out.Size() < (1<<20)*9/10 {
		t.Fatalf("suspiciously small output: %d bytes", out.Size())
	}
	if syscalls < 40 {
		t.Fatalf("gzip made only %d syscalls", syscalls)
	}
}

func TestSQLiteWritesDatabaseAndJournal(t *testing.T) {
	c := bootNative(t)
	w := workloads.SQLite(500)
	syscalls := runNative(t, c, w)
	db, err := c.K.VFS().Lookup("/data/test.db")
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() < 500*128 {
		t.Fatalf("db too small: %d", db.Size())
	}
	if _, err := c.K.VFS().Lookup("/data/test.db-journal"); err != nil {
		t.Fatal("no journal file")
	}
	// 3 writes per insert plus opens/closes.
	if syscalls < 1500 {
		t.Fatalf("sqlite made only %d syscalls for 500 inserts", syscalls)
	}
}

func TestUnQLiteAppendsRecords(t *testing.T) {
	c := bootNative(t)
	w := workloads.UnQLite(400)
	runNative(t, c, w)
	db, err := c.K.VFS().Lookup("/data/unqlite.db")
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() < 400*96 {
		t.Fatalf("store too small: %d", db.Size())
	}
}

func TestMbedTLSPrintsResults(t *testing.T) {
	c := bootNative(t)
	w := workloads.MbedTLS(50)
	runNative(t, c, w)
	console, err := c.K.VFS().Lookup("/dev/console")
	if err != nil {
		t.Fatal(err)
	}
	if console.Size() == 0 {
		t.Fatal("no self-test output")
	}
}

func TestLighttpdServesFilesOverSockets(t *testing.T) {
	c := bootNative(t)
	w := workloads.Lighttpd(25)
	syscalls := runNative(t, c, w)
	// Each request is ≥10 syscalls across server and client.
	if syscalls < 250 {
		t.Fatalf("lighttpd made only %d syscalls for 25 requests", syscalls)
	}
}

func TestMemcachedServesGetsAndSets(t *testing.T) {
	c := bootNative(t)
	w := workloads.Memcached(100)
	syscalls := runNative(t, c, w)
	if syscalls < 400 {
		t.Fatalf("memcached made only %d syscalls for 100 ops", syscalls)
	}
}

func TestNginxAndOpenSSLAnd7Zip(t *testing.T) {
	for _, w := range []workloads.Workload{
		workloads.NGINX(10),
		workloads.OpenSSLSpeed(10),
		workloads.SevenZip(5),
		workloads.SQLiteSpeedtest(10),
		workloads.SPECLike(),
	} {
		c := bootNative(t)
		runNative(t, c, w)
	}
}

func TestRegistryComplete(t *testing.T) {
	all := workloads.All()
	for _, name := range []string{
		"gzip", "sqlite", "unqlite", "mbedtls", "lighttpd",
		"memcached", "openssl", "7zip", "nginx", "spec-like",
	} {
		w, ok := all[name]
		if !ok {
			t.Fatalf("registry missing %q", name)
		}
		if w.Params == "" || w.Build == nil || w.Setup == nil {
			t.Fatalf("workload %q incomplete", name)
		}
	}
	if _, err := workloads.Get("nope"); err == nil {
		t.Fatal("unknown workload lookup succeeded")
	}
}

func TestGZipRunsInEnclaveToo(t *testing.T) {
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 48 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(72),
	})
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.GZip(256 << 10)
	if err := w.Setup(c); err != nil {
		t.Fatal(err)
	}
	prog := w.Build(c)
	host := c.K.Spawn("gzip-host")
	app, err := sdk.LaunchEnclave(c, host, prog, sdk.EnclaveConfig{RegionPages: w.RegionPages})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := app.Enter()
	if err != nil || rc != 0 {
		t.Fatalf("enclave gzip: rc=%d err=%v", rc, err)
	}
	out, err := c.K.VFS().Lookup("/data/output.gz")
	if err != nil || out.Size() == 0 {
		t.Fatalf("no output: %v", err)
	}
	if app.Enclave().Exits() < 8 {
		t.Fatalf("too few exits: %d", app.Enclave().Exits())
	}
}

func TestLighttpdRunsInEnclaveToo(t *testing.T) {
	c, err := cvm.Boot(cvm.Options{
		MemBytes: 48 << 20, VCPUs: 1, Veil: true, LogPages: 8,
		Rand: cvm.SeededRand(73),
	})
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.Lighttpd(10)
	if err := w.Setup(c); err != nil {
		t.Fatal(err)
	}
	prog := w.Build(c)
	host := c.K.Spawn("httpd-host")
	app, err := sdk.LaunchEnclave(c, host, prog, sdk.EnclaveConfig{RegionPages: w.RegionPages})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := app.Enter()
	if err != nil || rc != 0 {
		t.Fatalf("enclave lighttpd: rc=%d err=%v", rc, err)
	}
}
