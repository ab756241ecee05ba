package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCleanPackages runs the full pipeline (go list, parse, typecheck,
// analyze) over two real packages that must stay finding-free.
func TestCleanPackages(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-C", "../..", "./internal/bitset", "./internal/sched"}, &out, &errb)
	if code != 0 {
		t.Fatalf("expected exit 0, got %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}

// TestFindingsExitOne verifies the driver reports findings and exits 1 on a
// seeded-bad module.
func TestFindingsExitOne(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module bfsvettest\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), `package bad

import "sync/atomic"

var words = make([]uint64, 8)

var total int64

func leak(i int, mask uint64) {
	words[i] |= mask
	go func() {}()
}

// count claims to be atomics-free.
//
//bfs:nocas
func count() {
	atomic.AddInt64(&total, 1)
}
`)
	var out, errb bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("expected exit 1, got %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"atomicword: non-atomic |=", "waitgroupleak", "atomicword: sync/atomic call AddInt64 inside //bfs:nocas"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("expected a %s finding, got:\n%s", want, out.String())
		}
	}
}

func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, a := range analyzers {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing %q:\n%s", a.Name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "nosuch", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("expected exit 2 for unknown analyzer, got %d", code)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
