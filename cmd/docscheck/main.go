// Command docscheck is the documentation gate (make docs-check, part of
// make check). It enforces invariants that otherwise rot silently:
//
//   - Every package under internal/ and cmd/ carries a package comment,
//     so `go doc pass/internal/<pkg>` always explains what the package is
//     for and which part of the paper it models, and every binary's doc
//     comment states its usage and flags.
//   - README.md's experiment table lists exactly the experiments the
//     harness registry exposes — every registered ID appears as a table
//     row, and no table row names an unregistered ID. The registry is
//     imported directly (not parsed), so the check cannot itself drift.
//   - README.md and ARCHITECTURE.md name only things that exist: every
//     `make <target>` they mention is defined in the Makefile, and every
//     internal/..., cmd/... or examples/... path in backticks or a code
//     block is in the tree (templated paths holding <, { or * are
//     skipped).
//   - Every directory under examples/ has a _test.go file, so no example
//     exists that no gate runs.
//
// Usage:
//
//	docscheck [-root .]
//
// Exits non-zero listing every violation.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"pass/internal/harness"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	var failures []string
	failures = append(failures, checkPackageComments(*root)...)
	failures = append(failures, checkReadmeTable(*root)...)
	failures = append(failures, checkDocRefs(*root)...)
	failures = append(failures, checkExamplesTested(*root)...)

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
	fmt.Println("docscheck: package comments present, README experiment table matches the registry, doc references resolve, every example has a test")
}

// checkPackageComments walks internal/ and cmd/ and requires each
// directory that holds non-test Go files to have a package comment on at
// least one of them.
func checkPackageComments(root string) []string {
	var failures []string
	seen := map[string]bool{} // dir -> has any non-test .go file
	documented := map[string]bool{}

	for _, tree := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, tree), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.Dir(path)
			seen[dir] = true
			if documented[dir] {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", path, err))
				return nil
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented[dir] = true
			}
			return nil
		})
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	for dir := range seen {
		if !documented[dir] {
			failures = append(failures, fmt.Sprintf("package %s has no package comment (go doc is blank)", dir))
		}
	}
	return failures
}

// checkExamplesTested requires a _test.go file in every directory under
// examples/.
func checkExamplesTested(root string) []string {
	dirs, err := os.ReadDir(filepath.Join(root, "examples"))
	if err != nil {
		return []string{err.Error()}
	}
	var failures []string
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		tests, err := filepath.Glob(filepath.Join(root, "examples", d.Name(), "*_test.go"))
		if err != nil {
			return []string{err.Error()}
		}
		if len(tests) == 0 {
			failures = append(failures, fmt.Sprintf("examples/%s has no _test.go file, so no gate runs it", d.Name()))
		}
	}
	return failures
}

// experiment table rows look like "| E14 | ... |".
var tableRow = regexp.MustCompile(`^\|\s*(E\d+)\s*\|`)

// checkReadmeTable compares README.md's experiment table rows against
// harness.All().
func checkReadmeTable(root string) []string {
	readme := filepath.Join(root, "README.md")
	buf, err := os.ReadFile(readme)
	if err != nil {
		return []string{err.Error()}
	}
	inTable := map[string]bool{}
	for _, line := range strings.Split(string(buf), "\n") {
		if m := tableRow.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			inTable[m[1]] = true
		}
	}
	var failures []string
	registered := map[string]bool{}
	for _, e := range harness.All() {
		registered[e.ID] = true
		if !inTable[e.ID] {
			failures = append(failures, fmt.Sprintf("README.md experiment table is missing %s (%s)", e.ID, e.Title))
		}
	}
	for id := range inTable {
		if !registered[id] {
			failures = append(failures, fmt.Sprintf("README.md experiment table lists %s, which the harness registry does not know", id))
		}
	}
	return failures
}

var (
	// makeRule is a Makefile rule line: "target [target...]: prereqs".
	makeRule = regexp.MustCompile(`^([A-Za-z0-9][\w. -]*?)\s*:([^=]|$)`)
	// codeSpan is one inline code span.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// makeCmd is a make invocation at the start of a span or code line.
	makeCmd = regexp.MustCompile(`^\s*make\s+([a-z][\w-]*)`)
	// repoPath is a repository path under one of the checked trees.
	repoPath = regexp.MustCompile(`(?:^|[\s/.(])((?:internal|cmd|examples)/[^\s'"(),;]*)`)
)

// docsWithRefs are the documents whose make targets and paths must resolve.
var docsWithRefs = []string{"README.md", "ARCHITECTURE.md"}

// checkDocRefs fails every make target and repository path that
// README.md or ARCHITECTURE.md names but the tree does not have, so a
// deleted target or package cannot linger in the docs.
func checkDocRefs(root string) []string {
	targets, err := makeTargets(filepath.Join(root, "Makefile"))
	if err != nil {
		return []string{err.Error()}
	}
	var failures []string
	for _, doc := range docsWithRefs {
		buf, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		for _, code := range codeFragments(string(buf)) {
			if m := makeCmd.FindStringSubmatch(code); m != nil && !targets[m[1]] {
				failures = append(failures, fmt.Sprintf("%s mentions `make %s`, which the Makefile does not define", doc, m[1]))
			}
			for _, m := range repoPath.FindAllStringSubmatch(code, -1) {
				path := strings.TrimRight(m[1], ".:/`")
				if strings.ContainsAny(path, "<{*") {
					continue
				}
				if _, err := os.Stat(filepath.Join(root, path)); err != nil {
					failures = append(failures, fmt.Sprintf("%s names %s, which does not exist", doc, path))
				}
			}
		}
	}
	return failures
}

// codeFragments returns a markdown document's code: every line of a
// fenced block and every inline code span outside one.
func codeFragments(doc string) []string {
	var out []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			out = append(out, line)
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// makeTargets returns the targets the Makefile's rule lines define.
func makeTargets(path string) (map[string]bool, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(buf), "\n") {
		if m := makeRule.FindStringSubmatch(line); m != nil {
			for _, t := range strings.Fields(m[1]) {
				targets[t] = true
			}
		}
	}
	return targets, nil
}
