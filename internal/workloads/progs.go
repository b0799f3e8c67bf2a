package workloads

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"

	"veil/internal/cvm"
	"veil/internal/kernel"
	"veil/internal/sdk"
)

// Compute-rate constants (cycles), calibrated in DESIGN.md §5 /
// EXPERIMENTS.md against the paper's measured rates and overheads.
const (
	// gzipCyclesPerByte: DEFLATE over incompressible input ≈ 38 c/B
	// (≈50 MB/s at 1.9 GHz).
	gzipCyclesPerByte = 38
	// sqliteCyclesPerInsert: one autocommit INSERT incl. B-tree descent
	// and journal bookkeeping.
	sqliteCyclesPerInsert = 52_000
	// unqliteCyclesPerInsert: hash-store append path (no journal).
	unqliteCyclesPerInsert = 45_000
	// mbedtlsCyclesPerTest: one self-test vector (AES/SHA/RSA mix).
	mbedtlsCyclesPerTest = 100_000
	// opensslCyclesPerBatch: one pts/openssl speed batch between result
	// lines.
	opensslCyclesPerBatch = 1_250_000
	// sevenZipCyclesPerChunk: LZMA-class compression of one 64 KiB chunk.
	sevenZipCyclesPerChunk = 3_000_000
	// sqliteSpeedtestCyclesPerOp: one pts/sqlite-speedtest operation.
	sqliteSpeedtestCyclesPerOp = 1_600_000
	// gzipChunk is the program's I/O granularity.
	gzipChunk = 48 << 10
)

// GZip compresses a 10 MB pseudo-random file (Table 4): the paper's lowest
// enclave-exit-rate workload.
func GZip(size int) Workload {
	return Workload{
		Name:        "gzip",
		Params:      "Compressed a 10MB file generated using /dev/urandom",
		Threads:     1,
		RegionPages: 96,
		Setup: func(c *cvm.CVM) error {
			return writeFile(c, "/data/input.bin", seededBytes(1, size))
		},
		Build: func(c *cvm.CVM) sdk.Program {
			return sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
				in, err := lc.Open("/data/input.bin", kernel.ORdonly, 0)
				if err != nil {
					return 1
				}
				out, err := lc.Open("/data/output.gz", wrCreate, 0o644)
				if err != nil {
					return 2
				}
				var compressed bytes.Buffer
				fw, _ := flate.NewWriter(&compressed, flate.BestSpeed)
				buf := make([]byte, gzipChunk)
				for {
					n, err := lc.Read(in, buf)
					if err != nil || n == 0 {
						break
					}
					fw.Write(buf[:n])
					lc.Burn(uint64(n) * gzipCyclesPerByte)
					if compressed.Len() >= gzipChunk {
						lc.Write(out, compressed.Next(gzipChunk))
					}
				}
				fw.Close()
				lc.Write(out, compressed.Bytes())
				lc.Close(in)
				lc.Close(out)
				return 0
			})
		},
	}
}

// minidb is a small paged table engine: the storage behaviour under
// SQLite's autocommit INSERT loop (journal write, page write, metadata
// update per transaction).
type minidb struct {
	lc       sdk.Libc
	db, wal  int
	pageBuf  []byte
	nextSlot int64
}

func openMinidb(lc sdk.Libc, path string) (*minidb, error) {
	db, err := lc.Open(path, rdwrCreate, 0o644)
	if err != nil {
		return nil, err
	}
	wal, err := lc.Open(path+"-journal", rdwrCreate, 0o644)
	if err != nil {
		return nil, err
	}
	return &minidb{lc: lc, db: db, wal: wal, pageBuf: make([]byte, 128)}, nil
}

func (d *minidb) insert(key, val []byte, burn uint64) error {
	d.lc.Burn(burn)
	// Journal record first (crash safety), then the table page, then the
	// header slot count: three syscalls per autocommit transaction.
	rec := append(append([]byte{}, key...), val...)
	if _, err := d.lc.Write(d.wal, rec); err != nil {
		return err
	}
	copy(d.pageBuf, rec)
	if _, err := d.lc.Pwrite(d.db, d.pageBuf, 64+d.nextSlot*128); err != nil {
		return err
	}
	hdr := []byte{byte(d.nextSlot), byte(d.nextSlot >> 8), byte(d.nextSlot >> 16), byte(d.nextSlot >> 24)}
	if _, err := d.lc.Pwrite(d.db, hdr, 0); err != nil {
		return err
	}
	d.nextSlot++
	return nil
}

func (d *minidb) close() {
	d.lc.Close(d.db)
	d.lc.Close(d.wal)
}

// SQLite inserts 10k random entries into a test database (Table 4): the
// paper's highest enclave-exit-rate workload.
func SQLite(inserts int) Workload {
	return Workload{
		Name:        "sqlite",
		Params:      "Inserted 10k random entries into a test database",
		Threads:     1,
		RegionPages: 96,
		Setup:       func(*cvm.CVM) error { return nil },
		Build: func(c *cvm.CVM) sdk.Program {
			return sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
				db, err := openMinidb(lc, "/data/test.db")
				if err != nil {
					return 1
				}
				defer db.close()
				key := make([]byte, 16)
				val := seededBytes(2, 64)
				for i := 0; i < inserts; i++ {
					for b := 0; b < 8; b++ {
						key[b] = byte(i >> (8 * b))
					}
					if err := db.insert(key, val, sqliteCyclesPerInsert); err != nil {
						return 2
					}
				}
				return 0
			})
		},
	}
}

// UnQLite runs the provided huge-db test shape (Table 4): a hash-store
// append path without per-transaction journaling. The insert count scales
// the paper's 1M-entry run down for simulation time; rates are per-second
// and unaffected by the scale.
func UnQLite(inserts int) Workload {
	return Workload{
		Name:        "unqlite",
		Params:      "Ran provided huge-db test (1M random entries; scaled run)",
		Threads:     1,
		RegionPages: 96,
		Setup:       func(*cvm.CVM) error { return nil },
		Build: func(c *cvm.CVM) sdk.Program {
			return sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
				log, err := lc.Open("/data/unqlite.db", rdwrCreate, 0o644)
				if err != nil {
					return 1
				}
				rec := seededBytes(3, 96)
				for i := 0; i < inserts; i++ {
					lc.Burn(unqliteCyclesPerInsert)
					if _, err := lc.Write(log, rec); err != nil {
						return 2
					}
					if i%2 == 1 {
						// Bucket directory update every other insert.
						if _, err := lc.Pwrite(log, rec[:16], int64(i)); err != nil {
							return 3
						}
					}
				}
				lc.Close(log)
				return 0
			})
		},
	}
}

// MbedTLS runs the library self-test (Table 4): 2.8k vectors over AES,
// SHA, RSA, ChaCha, with one result line per test.
func MbedTLS(tests int) Workload {
	return Workload{
		Name:        "mbedtls",
		Params:      "Self-test benchmark: 2.8k tests for AES, SHA, RSA, ChaCha etc.",
		Threads:     1,
		RegionPages: 64,
		Setup:       func(*cvm.CVM) error { return nil },
		Build: func(c *cvm.CVM) sdk.Program {
			return sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
				key := seededBytes(4, 32)
				block, err := aes.NewCipher(key)
				if err != nil {
					return 1
				}
				gcm, _ := cipher.NewGCM(block)
				msg := seededBytes(5, 256)
				nonce := make([]byte, gcm.NonceSize())
				for i := 0; i < tests; i++ {
					// Real crypto keeps the program honest; Burn models
					// the full vector cost (RSA etc.).
					ct := gcm.Seal(nil, nonce, msg, nil)
					sum := sha256.Sum256(ct)
					msg[0] = sum[0]
					lc.Burn(mbedtlsCyclesPerTest)
					if err := lc.Print(fmt.Sprintf("test %d: PASSED\n", i)); err != nil {
						return 2
					}
				}
				return 0
			})
		},
	}
}

// OpenSSLSpeed models pts/openssl (Table 5): long crypto batches with a
// result line per batch — a low audit-rate workload.
func OpenSSLSpeed(batches int) Workload {
	return Workload{
		Name:    "openssl",
		Params:  "Phoronix benchmark: pts/openssl",
		Threads: 1,
		Setup:   func(*cvm.CVM) error { return nil },
		Build: func(c *cvm.CVM) sdk.Program {
			return sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
				sum := sha256.Sum256([]byte("openssl"))
				for i := 0; i < batches; i++ {
					for j := 0; j < 16; j++ {
						sum = sha256.Sum256(sum[:])
					}
					lc.Burn(opensslCyclesPerBatch)
					if err := lc.Print(fmt.Sprintf("sign/s batch %d %x\n", i, sum[0])); err != nil {
						return 1
					}
				}
				return 0
			})
		},
	}
}

// SevenZip models pts/compress-7zip (Table 5): chunked compression with a
// read and a write per chunk.
func SevenZip(chunks int) Workload {
	return Workload{
		Name:    "7zip",
		Params:  "Phoronix benchmark: pts/compress-7zip",
		Threads: 1,
		Setup: func(c *cvm.CVM) error {
			return writeFile(c, "/data/7z-input.bin", seededBytes(6, 64<<10))
		},
		Build: func(c *cvm.CVM) sdk.Program {
			return sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
				out, err := lc.Open("/data/7z-out.bin", wrCreate, 0o644)
				if err != nil {
					return 1
				}
				buf := make([]byte, 16<<10)
				var compressed bytes.Buffer
				// One compressor per run: Reset equals a fresh NewWriter
				// without its megabyte of new state per chunk.
				fw, _ := flate.NewWriter(&compressed, flate.BestCompression)
				for i := 0; i < chunks; i++ {
					in, err := lc.Open("/data/7z-input.bin", kernel.ORdonly, 0)
					if err != nil {
						return 2
					}
					n, _ := lc.Read(in, buf)
					lc.Close(in)
					compressed.Reset()
					fw.Reset(&compressed)
					fw.Write(buf[:n])
					fw.Close()
					lc.Burn(sevenZipCyclesPerChunk)
					if _, err := lc.Write(out, compressed.Bytes()[:min(1024, compressed.Len())]); err != nil {
						return 3
					}
				}
				lc.Close(out)
				return 0
			})
		},
	}
}

// SQLiteSpeedtest models pts/sqlite-speedtest (Table 5): heavier operations
// than the Table 4 insert loop, two audited syscalls per op.
func SQLiteSpeedtest(ops int) Workload {
	return Workload{
		Name:    "sqlite-speedtest",
		Params:  "Phoronix benchmark: pts/sqlite-speedtest",
		Threads: 1,
		Setup:   func(*cvm.CVM) error { return nil },
		Build: func(c *cvm.CVM) sdk.Program {
			return sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
				db, err := lc.Open("/data/speedtest.db", rdwrCreate, 0o644)
				if err != nil {
					return 1
				}
				page := seededBytes(7, 512)
				for i := 0; i < ops; i++ {
					lc.Burn(sqliteSpeedtestCyclesPerOp)
					if _, err := lc.Write(db, page[:64]); err != nil {
						return 2
					}
					if _, err := lc.Pwrite(db, page, int64(i*512)); err != nil {
						return 3
					}
				}
				lc.Close(db)
				return 0
			})
		},
	}
}

// SPECLike is the §9.1 background workload: CPU-bound computation with a
// negligible syscall footprint, for the "no discernible slowdown under
// normal execution" measurement.
func SPECLike() Workload {
	return Workload{
		Name:    "spec-like",
		Params:  "SPEC CPU 2006-like compute kernel",
		Threads: 1,
		Setup:   func(*cvm.CVM) error { return nil },
		Build: func(c *cvm.CVM) sdk.Program {
			return sdk.ProgramFunc(func(lc sdk.Libc, args []string) int {
				acc := uint64(12345)
				for i := 0; i < 2000; i++ {
					for j := 0; j < 64; j++ {
						acc = acc*6364136223846793005 + 1442695040888963407
					}
					lc.Burn(1_000_000)
				}
				if acc == 0 {
					return 1
				}
				lc.Print("spec done\n")
				return 0
			})
		},
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
