package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckDocRefs: a docs tree naming a make target or a package path
// that is gone fails; the same tree without the stale names passes.
func TestCheckDocRefs(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", ".PHONY: build check\n\nbuild:\n\tgo build ./...\n\ncheck: build\n\tgo vet ./...\n")
	write("internal/core/core.go", "package core\n")
	write("ARCHITECTURE.md", "`internal/core` and `internal/arch/<model>`; `make check` is the gate.\n")

	write("README.md", "```sh\nmake build\nmake bench-retired  # gone\n```\n\nSee `internal/retired` and `go run ./cmd/retired`.\n")
	got := strings.Join(checkDocRefs(root), "\n")
	for _, want := range []string{"`make bench-retired`", "internal/retired", "cmd/retired"} {
		if !strings.Contains(got, want) {
			t.Errorf("stale %s not reported; failures:\n%s", want, got)
		}
	}
	if strings.Contains(got, "make build") || strings.Contains(got, "internal/core") || strings.Contains(got, "<model>") {
		t.Errorf("live or templated reference reported; failures:\n%s", got)
	}

	write("README.md", "```sh\nmake build\n```\n\nThis prose may make claims; see `internal/core`.\n")
	if f := checkDocRefs(root); len(f) != 0 {
		t.Fatalf("clean docs reported %v", f)
	}
}

// TestCheckDocRefsRealTree: the repository's own README and
// ARCHITECTURE name only targets and paths that exist.
func TestCheckDocRefsRealTree(t *testing.T) {
	if f := checkDocRefs(filepath.Join("..", "..")); len(f) != 0 {
		t.Fatalf("doc references do not resolve:\n%s", strings.Join(f, "\n"))
	}
}

// TestCheckExamplesTested: an example directory without a _test.go file
// fails; once it has one, and in the repository itself, nothing does.
func TestCheckExamplesTested(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"examples/tested/main.go", "examples/tested/main_test.go", "examples/untested/main.go"} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("package main\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f := checkExamplesTested(root)
	if len(f) != 1 || !strings.Contains(f[0], "examples/untested") {
		t.Fatalf("want one failure naming examples/untested, got %v", f)
	}
	if err := os.WriteFile(filepath.Join(root, "examples/untested/main_test.go"), []byte("package main\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if f := checkExamplesTested(root); len(f) != 0 {
		t.Fatalf("tested examples reported %v", f)
	}
	if f := checkExamplesTested(filepath.Join("..", "..")); len(f) != 0 {
		t.Fatalf("repository examples:\n%s", strings.Join(f, "\n"))
	}
}

// TestCheckSeriesTable: a "pass_…" literal in node code that README's
// series table lacks fails, as does a table row no such literal names;
// test files and other packages do not count, and label sets in the
// table are ignored. The repository's own table matches.
func TestCheckSeriesTable(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/node/node.go", "package node\n\nvar a, b = \"pass_node_records\", \"pass_wal_errors_total\"\n")
	write("internal/wire/wire.go", "package wire\n")
	write("internal/harness/cluster/cluster.go", "package cluster\n")
	write("cmd/passd/main.go", "package main\n\nvar e = \"pass_node_records\"\n")
	write("internal/node/node_test.go", "package node\n\nvar c = \"pass_only_in_tests\"\n")
	write("internal/arch/arch.go", "package arch\n\nvar d = \"pass_simulated\"\n")
	table := "| series | type |\n|---|---|\n| `pass_node_records` | gauge |\n"

	write("README.md", table)
	f := checkSeriesTable(root)
	if len(f) != 1 || !strings.Contains(f[0], "missing pass_wal_errors_total") || !strings.Contains(f[0], "internal/node/node.go") {
		t.Fatalf("want one failure for the undocumented literal, got %v", f)
	}

	write("README.md", table+"| `pass_wal_errors_total{mode=...}`, `pass_retired` | counter |\n")
	f = checkSeriesTable(root)
	if len(f) != 1 || !strings.Contains(f[0], "lists pass_retired") {
		t.Fatalf("want one failure for the stale row name, got %v", f)
	}

	write("README.md", table+"| `pass_wal_errors_total` | counter |\n")
	if f := checkSeriesTable(root); len(f) != 0 {
		t.Fatalf("matching table reported %v", f)
	}
	if f := checkSeriesTable(filepath.Join("..", "..")); len(f) != 0 {
		t.Fatalf("repository series table:\n%s", strings.Join(f, "\n"))
	}
}
