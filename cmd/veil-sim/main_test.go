package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"veil/internal/obs"
)

// failWriter refuses every write, like a closed pipe or a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func testRecorders() []*obs.Recorder {
	rec := obs.NewRecorder(64)
	*rec.Alloc(0) = obs.Event{Class: obs.ClassSyscall, Kind: obs.Span, TS: 100, Dur: 40, Span: 1, VMPL: -1}
	return []*obs.Recorder{rec}
}

// A failed export must surface as an error, never as a clean exit.
func TestExportRunReportsErrors(t *testing.T) {
	recs := testRecorders()
	if err := exportRun(failWriter{}, recs, "", "", true); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("metrics to a failing writer: err = %v, want the write error", err)
	}
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	if err := exportRun(&bytes.Buffer{}, recs, missing, "", false); err == nil {
		t.Fatal("trace to an uncreatable path returned no error")
	}
	if err := exportRun(&bytes.Buffer{}, recs, "", missing, false); err == nil {
		t.Fatal("causal view to an uncreatable path returned no error")
	}
	if err := writeFile(filepath.Join(t.TempDir(), "x"), func(io.Writer) error {
		return errors.New("writer failed")
	}); err == nil {
		t.Fatal("writeFile dropped the writer's error")
	}
}

// The happy path writes every requested export, for one machine or many.
func TestExportRunWritesEverything(t *testing.T) {
	dir := t.TempDir()
	trace, causal := filepath.Join(dir, "trace.json"), filepath.Join(dir, "causal.json")
	var page bytes.Buffer
	if err := exportRun(&page, testRecorders(), trace, causal, true); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{trace, causal} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", path, err)
		}
	}
	if !strings.Contains(page.String(), `veil_events_total{machine="0",class="syscall"} 1`) {
		t.Fatalf("metrics page missing the syscall counter:\n%s", page.String())
	}
}

// The -fleet 3 ring with every export and the auditor on: an honest run
// with zero auditor violations and both files written.
func TestRunFleet(t *testing.T) {
	dir := t.TempDir()
	trace, causal := filepath.Join(dir, "trace.json"), filepath.Join(dir, "causal.json")
	if err := runFleet(3, 64<<20, trace, causal, true, true); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{trace, causal} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", p, err)
		}
	}
}
