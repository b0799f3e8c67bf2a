package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failWriter refuses every write, like a closed pipe or a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// A -json artifact that cannot be written in full must surface as an
// error, never as a clean exit.
func TestWriteJSONReportsErrors(t *testing.T) {
	results := map[string]any{"switch": map[string]int{"Cycles": 1}}
	if err := encodeJSON(failWriter{}, results); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("encode to a failing writer: err = %v, want the write error", err)
	}
	dir := t.TempDir()
	if err := writeJSON(filepath.Join(dir, "no-such-dir", "out.json"), results); err == nil {
		t.Fatal("writeJSON to an uncreatable path returned no error")
	}
	path := filepath.Join(dir, "out.json")
	if err := writeJSON(path, results); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]map[string]int
	if err := json.Unmarshal(raw, &back); err != nil || back["switch"]["Cycles"] != 1 {
		t.Fatalf("round trip: %v, %v", back, err)
	}
}

// Every failing exit after -cpuprofile starts still flushes the profile,
// and a -json artifact that cannot be written fails the run.
func TestFailedRunKeepsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown experiment", []string{"-experiment", "no-such-experiment"}, 2},
		{"unwritable json", []string{"-experiment", "switch", "-iters", "10",
			"-json", filepath.Join(dir, "no-such-dir", "out.json")}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			prof := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".pprof")
			if got := run(append(c.args, "-cpuprofile", prof)); got != c.want {
				t.Fatalf("exit status %d, want %d", got, c.want)
			}
			if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
				t.Fatalf("CPU profile not flushed: %v", err)
			}
		})
	}
}
