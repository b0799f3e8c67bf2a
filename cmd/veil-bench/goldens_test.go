package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedGoldens regenerates every deterministic committed result
// and byte-compares it with the file in the tree: the fig4/fig5 goldens
// and the BENCH files whose every value is virtual cycles (or is zeroed by
// -stable). A change that moves any of them must regenerate the file
// deliberately.
func TestCommittedGoldens(t *testing.T) {
	for _, c := range []struct {
		experiment string
		flags      []string
		golden     string
	}{
		{"fig4", []string{"-iters", "500"}, "testdata/goldens/fig4.json"},
		{"fig5", []string{"-iters", "500"}, "testdata/goldens/fig5.json"},
		{"batch", []string{"-stable"}, "BENCH_batch.json"},
		{"mempath", []string{"-stable"}, "BENCH_mempath.json"},
		{"smp", nil, "BENCH_smp.json"},
		{"fleet", nil, "BENCH_fleet.json"},
	} {
		t.Run(c.experiment, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), c.experiment+".json")
			args := append([]string{"-experiment", c.experiment, "-json", out}, c.flags...)
			if got := run(args); got != 0 {
				t.Fatalf("veil-bench %v: exit status %d", args, got)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from the committed %s; regenerate it deliberately if the change is intended", c.experiment, c.golden)
			}
		})
	}
}
