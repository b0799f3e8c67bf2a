package veil

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasACaller fails on any internal/ package that no
// shipped program reaches: it follows veil/internal imports of non-test
// files, transitively, from every command, every example and the benchmark
// module. A package that only tests import is dead code with a test suite.
func TestEveryInternalPackageHasACaller(t *testing.T) {
	var roots []string
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, dirs...)
	}
	roots = append(roots, "benchmark")

	reached := map[string]bool{}
	queue := roots
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		imports, err := packageImports(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range imports {
			rel, ok := strings.CutPrefix(path, "veil/")
			if !ok || !strings.HasPrefix(rel, "internal/") || reached[rel] {
				continue
			}
			reached[rel] = true
			queue = append(queue, rel)
		}
	}

	var orphans []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, err := nonTestGoFiles(path)
		if err != nil {
			return err
		}
		if len(files) > 0 && !reached[filepath.ToSlash(path)] {
			orphans = append(orphans, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) > 0 {
		t.Fatalf("no command, example or the benchmark imports these packages, even indirectly; give each a caller or delete it:\n  %s",
			strings.Join(orphans, "\n  "))
	}
}

// nonTestGoFiles lists the Go source files in dir that are not tests.
func nonTestGoFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

// packageImports returns the import paths of the non-test files in dir.
func packageImports(dir string) ([]string, error) {
	files, err := nonTestGoFiles(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			paths = append(paths, path)
		}
	}
	return paths, nil
}
