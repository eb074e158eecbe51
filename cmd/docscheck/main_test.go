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
